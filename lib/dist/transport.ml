(* RPC transport for the 2PC coordinator.

   One connection per partition carries the coordinator's half of the
   protocol (Prepare/Decide, plus Resolve against a recovered coordinator)
   as length-prefixed frames:

     magic "ACCRPC\x00\x00" | u32 version | u32 length | marshalled frame

   — the same magic+version header discipline as the WAL
   ({!Acc_wal.Log.Header}), so a version bump is detected before a single
   payload byte is interpreted.

   Two implementations behind one [call] interface:

   - {e loopback}: the handler runs synchronously in the caller; frames
     still round-trip through encode/decode so framing bugs cannot hide.
     No wall-clock anywhere — a "timeout" is simply a reply the fault
     layer did not deliver — which keeps the crash/chaos harness
     deterministic.
   - {e pipe}: a [Unix.socketpair] with the partition's request loop on a
     dedicated domain; [call] writes the request and [select]s for the
     matching reply until its deadline.

   The fault layer sits on the send side of both directions (requests and
   replies draw from independent PRNG streams derived from the spec's
   seed), so a dropped Vote and a dropped Prepare are distinct faults.  A
   held-back frame (delay/reorder) is released by later sends, never by a
   timer — retries are what flush the network, exactly the property the
   idempotency tests need.  Every injected fault emits a
   [Trace.Net_fault] event. *)

module Fault = Acc_fault.Fault
module Netfault = Fault.Netfault
module Trace = Acc_obs.Trace
module Prng = Acc_util.Prng
module Header = Acc_wal.Log.Header

type msg =
  | Prepare of { gid : int; part : int }
  | Vote of { gid : int; ok : bool }
  | Decide of { gid : int; commit : bool }
  | Ack of { gid : int }
  | Resolve of { gid : int }

let msg_kind = function
  | Prepare _ -> "prepare"
  | Vote _ -> "vote"
  | Decide _ -> "decide"
  | Ack _ -> "ack"
  | Resolve _ -> "resolve"

let gid_of = function
  | Prepare { gid; _ } | Vote { gid; _ } | Decide { gid; _ } | Ack { gid }
  | Resolve { gid } ->
      gid

type frame = { seq : int; msg : msg }

let magic = "ACCRPC\x00\x00"
let version = 1
let header_len = Header.size ~magic

let encode f =
  let payload = Marshal.to_string (f.seq, f.msg) [] in
  let b = Buffer.create (header_len + 4 + String.length payload) in
  Buffer.add_string b (Header.to_string ~magic ~version);
  let len = Bytes.create 4 in
  Bytes.set_int32_be len 0 (Int32.of_int (String.length payload));
  Buffer.add_bytes b len;
  Buffer.add_string b payload;
  Buffer.contents b

let decode s =
  Header.check ~magic ~version ~what:"RPC frame" ~who:"Transport.decode"
    ~path:"<wire>" s;
  if String.length s < header_len + 4 then
    failwith "Transport.decode: frame truncated (no length)";
  let len = Int32.to_int (String.get_int32_be s header_len) in
  if String.length s <> header_len + 4 + len then
    failwith "Transport.decode: frame length mismatch";
  let seq, msg = Marshal.from_string (String.sub s (header_len + 4) len) 0 in
  { seq; msg }

(* Incremental frame extraction for the pipe's byte stream. *)
module Reader = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create () = { buf = Bytes.create 4096; len = 0 }

  let add t src n =
    if t.len + n > Bytes.length t.buf then begin
      let b = Bytes.create (max (2 * Bytes.length t.buf) (t.len + n)) in
      Bytes.blit t.buf 0 b 0 t.len;
      t.buf <- b
    end;
    Bytes.blit src 0 t.buf t.len n;
    t.len <- t.len + n

  let next t =
    if t.len < header_len + 4 then None
    else begin
      let plen =
        Int32.to_int (Bytes.get_int32_be t.buf header_len)
      in
      let total = header_len + 4 + plen in
      if t.len < total then None
      else begin
        let f = decode (Bytes.sub_string t.buf 0 total) in
        Bytes.blit t.buf total t.buf 0 (t.len - total);
        t.len <- t.len - total;
        Some f
      end
    end

  let drain t =
    let rec go acc = match next t with
      | Some f -> go (f :: acc)
      | None -> List.rev acc
    in
    go []
end

(* The injectable fault layer: one state per stream direction.  [send]
   maps one outgoing frame to the frames actually put on the wire now —
   possibly none (drop, or held back), possibly two (dup), possibly
   trailing frames whose hold just expired.  Holds tick down per send, so
   delivery order is a pure function of the send sequence and the seed. *)
module Faults = struct
  type t = {
    spec : Netfault.spec;
    g : Prng.t;
    mutable burst : int;  (* disconnect flap: frames still to swallow *)
    mutable held : (int * frame) list;  (* sends-remaining, frame *)
  }

  let make spec ~dir =
    { spec; g = Prng.create ~seed:(spec.Netfault.seed + dir); burst = 0; held = [] }

  let note kind m =
    if Trace.enabled () then
      Trace.emit (Trace.Net_fault { kind; msg = msg_kind m })

  let send t f =
    if Netfault.is_none t.spec then [ f ]
    else begin
      let due, still = List.partition (fun (k, _) -> k <= 1) t.held in
      t.held <- List.map (fun (k, fr) -> (k - 1, fr)) still;
      let released = List.map snd due in
      let out =
        if not (Netfault.applies t.spec ~op:(msg_kind f.msg)) then [ f ]
        else if t.burst > 0 then begin
          t.burst <- t.burst - 1;
          note "disconnect" f.msg;
          []
        end
        else if Prng.chance t.g t.spec.drop then begin
          note "drop" f.msg;
          []
        end
        else if Prng.chance t.g t.spec.dup then begin
          note "dup" f.msg;
          [ f; f ]
        end
        else if Prng.chance t.g t.spec.delay then begin
          note "delay" f.msg;
          t.held <- t.held @ [ (Prng.int_in t.g 1 3, f) ];
          []
        end
        else if Prng.chance t.g t.spec.reorder then begin
          note "reorder" f.msg;
          t.held <- t.held @ [ (1, f) ];
          []
        end
        else if Prng.chance t.g t.spec.disconnect then begin
          note "disconnect" f.msg;
          t.burst <- Prng.int_in t.g 0 3;
          []
        end
        else [ f ]
      in
      out @ released
    end
end

type kind = [ `Loopback | `Pipe ]

let kind_name = function `Loopback -> "loopback" | `Pipe -> "pipe"

let kind_of_string = function
  | "loopback" -> `Loopback
  | "pipe" -> `Pipe
  | s -> invalid_arg ("Transport.kind_of_string: " ^ s)

type loopback = {
  handler : msg -> msg;
  lreqf : Faults.t;
  lrepf : Faults.t;
  mutable replies : (int * msg) list;
}

type pipe = {
  cfd : Unix.file_descr;
  preqf : Faults.t;
  reader : Reader.t;
  pending : (int, msg) Hashtbl.t;
  rbuf : Bytes.t;
  dom : unit Domain.t;
}

type conn = Loopback of loopback | Pipe of pipe

type t = { mu : Mutex.t; mutable seq : int; c : conn; mutable closed : bool }

let kind t = match t.c with Loopback _ -> `Loopback | Pipe _ -> `Pipe

let loopback ?(faults = Netfault.none) handler =
  {
    mu = Mutex.create ();
    seq = 0;
    closed = false;
    c =
      Loopback
        {
          handler;
          lreqf = Faults.make faults ~dir:0;
          lrepf = Faults.make faults ~dir:1;
          replies = [];
        };
  }

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write fd (Bytes.unsafe_of_string s) off len in
    write_all fd s (off + n) (len - n)
  end

(* The partition's request loop: read → handle → reply, one dedicated
   domain per connection.  A handler exception drops the request — the
   client times out and retries, which is exactly how a remote participant
   death would look.  A simulated [Fault.Crash] is that death and passes
   silently; any other exception is a participant-side fault, reported on
   stderr so that it does not pass for a lost frame. *)
let serve sfd handler repf =
  let rdr = Reader.create () in
  let buf = Bytes.create 65536 in
  let closed = ref false in
  let rec loop () =
    if not !closed then
      match Unix.read sfd buf 0 (Bytes.length buf) with
      | 0 -> closed := true
      | exception Unix.Unix_error ((Unix.EBADF | Unix.ECONNRESET | Unix.EPIPE), _, _)
        ->
          closed := true
      | n ->
          Reader.add rdr buf n;
          List.iter
            (fun (f : frame) ->
              match handler f.msg with
              | reply ->
                  List.iter
                    (fun (r : frame) ->
                      let s = encode r in
                      try write_all sfd s 0 (String.length s)
                      with Unix.Unix_error _ -> closed := true)
                    (Faults.send repf { seq = f.seq; msg = reply })
              | exception Fault.Crash _ -> ()
              | exception e ->
                  Printf.eprintf "transport: %s handler raised %s; request dropped\n%!"
                    (msg_kind f.msg) (Printexc.to_string e))
            (Reader.drain rdr);
          loop ()
  in
  loop ();
  try Unix.close sfd with Unix.Unix_error _ -> ()

let pipe ?(faults = Netfault.none) handler =
  let sfd, cfd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let repf = Faults.make faults ~dir:1 in
  let dom = Domain.spawn (fun () -> serve sfd handler repf) in
  {
    mu = Mutex.create ();
    seq = 0;
    closed = false;
    c =
      Pipe
        {
          cfd;
          preqf = Faults.make faults ~dir:0;
          reader = Reader.create ();
          pending = Hashtbl.create 16;
          rbuf = Bytes.create 65536;
          dom;
        };
  }

let loopback_call lb seq m =
  let f = decode (encode { seq; msg = m }) in
  List.iter
    (fun (rf : frame) ->
      let reply = lb.handler rf.msg in
      List.iter
        (fun (r : frame) -> lb.replies <- lb.replies @ [ (r.seq, r.msg) ])
        (Faults.send lb.lrepf (decode (encode { seq = rf.seq; msg = reply }))))
    (Faults.send lb.lreqf f);
  (* take the matching reply; discard stale ones (their caller gave up) *)
  let rec take acc = function
    | [] -> (None, List.rev acc)
    | (s, r) :: rest when s = seq -> (Some r, List.rev_append acc rest)
    | (s, _) :: rest when s < seq -> take acc rest
    | e :: rest -> take (e :: acc) rest
  in
  let r, q = take [] lb.replies in
  lb.replies <- q;
  r

let pipe_call p seq deadline m =
  Hashtbl.iter
    (fun s _ -> if s < seq then Hashtbl.remove p.pending s)
    (Hashtbl.copy p.pending);
  let fs = Faults.send p.preqf { seq; msg = m } in
  (try
     List.iter
       (fun (f : frame) ->
         let s = encode f in
         write_all p.cfd s 0 (String.length s))
       fs
   with Unix.Unix_error _ -> ());
  let until = Unix.gettimeofday () +. deadline in
  let rec wait () =
    match Hashtbl.find_opt p.pending seq with
    | Some r ->
        Hashtbl.remove p.pending seq;
        Some r
    | None ->
        let remain = until -. Unix.gettimeofday () in
        if remain <= 0. then None
        else begin
          match Unix.select [ p.cfd ] [] [] remain with
          | exception Unix.Unix_error (Unix.EINTR, _, _) ->
              (* a signal interrupted the wait: loop with the remaining
                 deadline recomputed instead of leaking the exception
                 through [call] *)
              wait ()
          | [], _, _ -> None
          | _ -> (
              match Unix.read p.cfd p.rbuf 0 (Bytes.length p.rbuf) with
              | 0 -> None
              | exception Unix.Unix_error _ -> None
              | n ->
                  Reader.add p.reader p.rbuf n;
                  List.iter
                    (fun (f : frame) -> Hashtbl.replace p.pending f.seq f.msg)
                    (Reader.drain p.reader);
                  wait ())
        end
  in
  wait ()

let call ?(deadline = 1.0) t m =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      if t.closed then None
      else begin
        t.seq <- t.seq + 1;
        let seq = t.seq in
        match t.c with
        | Loopback lb -> loopback_call lb seq m
        | Pipe p -> pipe_call p seq deadline m
      end)

let close t =
  Mutex.lock t.mu;
  let was_closed = t.closed in
  t.closed <- true;
  Mutex.unlock t.mu;
  if not was_closed then
    match t.c with
    | Loopback _ -> ()
    | Pipe p ->
        (try Unix.shutdown p.cfd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        (try Unix.close p.cfd with Unix.Unix_error _ -> ());
        Domain.join p.dom

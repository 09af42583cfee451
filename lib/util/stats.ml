module Tally = struct
  type t = {
    mutable count : int;
    mutable mean : float;
    mutable m2 : float; (* Welford's sum of squared deviations *)
    mutable total : float;
    mutable min_v : float;
    mutable max_v : float;
    mutable values : float list; (* retained for exact quantiles *)
    mutable sorted : float array option; (* cache invalidated by add *)
  }

  let create () =
    {
      count = 0;
      mean = 0.;
      m2 = 0.;
      total = 0.;
      min_v = infinity;
      max_v = neg_infinity;
      values = [];
      sorted = None;
    }

  let add t x =
    t.count <- t.count + 1;
    t.total <- t.total +. x;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min_v then t.min_v <- x;
    if x > t.max_v then t.max_v <- x;
    t.values <- x :: t.values;
    t.sorted <- None

  let count t = t.count
  let total t = t.total
  let mean t = if t.count = 0 then nan else t.mean
  let variance t = if t.count < 2 then 0. else t.m2 /. float_of_int (t.count - 1)
  let stddev t = sqrt (variance t)
  let min t = t.min_v
  let max t = t.max_v

  let sorted t =
    match t.sorted with
    | Some a -> a
    | None ->
        let a = Array.of_list t.values in
        Array.sort compare a;
        t.sorted <- Some a;
        a

  let percentile t p =
    if t.count = 0 then nan
    else begin
      let a = sorted t in
      let n = Array.length a in
      if n = 1 then a.(0)
      else begin
        let p = Float.max 0. (Float.min 1. p) in
        let rank = p *. float_of_int (n - 1) in
        let lo = int_of_float (Float.floor rank) in
        let hi = Stdlib.min (lo + 1) (n - 1) in
        let frac = rank -. float_of_int lo in
        a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
      end
    end

  let merge a b =
    let t = create () in
    List.iter (add t) (List.rev_append a.values b.values);
    t

  (* [values] is newest first *)
  let since t n =
    let s = create () in
    List.iter (add s) (List.rev (List.filteri (fun i _ -> i < t.count - n) t.values));
    s
end

module Counter = struct
  type t = (string, int) Hashtbl.t

  let create () = Hashtbl.create 16

  let add t name n =
    let cur = Option.value ~default:0 (Hashtbl.find_opt t name) in
    Hashtbl.replace t name (cur + n)

  let incr t name = add t name 1
  let get t name = Option.value ~default:0 (Hashtbl.find_opt t name)

  let to_list t =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
end

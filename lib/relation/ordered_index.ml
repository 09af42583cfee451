(* Weight-balanced BST (Adams' bounded-balance trees, the scheme behind
   OCaml's Map) over composite (index key, primary key) entries.  Written
   out rather than reusing Map so the rebalancing invariant is testable
   directly and range extraction can walk the structure without closures
   over splits. *)

type entry = { e_key : Value.t list; e_pk : Value.t list }

type node = Leaf | Node of { l : node; v : entry; r : node; size : int }

type t = {
  idx_name : string;
  key_of : Value.t array -> Value.t list;
  mutable root : node;
}

let create ~name ~key_of = { idx_name = name; key_of; root = Leaf }
let name t = t.idx_name

(* nodes are never written: an update on either side rebuilds its path *)
let copy t = { t with root = t.root }

let node_size = function Leaf -> 0 | Node { size; _ } -> size
let size t = node_size t.root

let compare_entry a b =
  let c = List.compare Value.compare a.e_key b.e_key in
  if c <> 0 then c else List.compare Value.compare a.e_pk b.e_pk

let mk l v r = Node { l; v; r; size = 1 + node_size l + node_size r }

(* Adams' balance: neither subtree more than [delta] times the other. *)
let delta = 3

let rotate_single_left l v r =
  match r with
  | Node { l = rl; v = rv; r = rr; _ } -> mk (mk l v rl) rv rr
  | Leaf -> assert false

let rotate_single_right l v r =
  match l with
  | Node { l = ll; v = lv; r = lr; _ } -> mk ll lv (mk lr v r)
  | Leaf -> assert false

let rotate_double_left l v r =
  match r with
  | Node { l = Node { l = rll; v = rlv; r = rlr; _ }; v = rv; r = rr; _ } ->
      mk (mk l v rll) rlv (mk rlr rv rr)
  | Node _ | Leaf -> assert false

let rotate_double_right l v r =
  match l with
  | Node { l = ll; v = lv; r = Node { l = lrl; v = lrv; r = lrr; _ }; _ } ->
      mk (mk ll lv lrl) lrv (mk lrr v r)
  | Node _ | Leaf -> assert false

let balance l v r =
  let sl = node_size l and sr = node_size r in
  if sl + sr <= 1 then mk l v r
  else if sr > delta * sl then begin
    match r with
    | Node { l = rl; r = rr; _ } ->
        if node_size rl < node_size rr then rotate_single_left l v r
        else rotate_double_left l v r
    | Leaf -> assert false
  end
  else if sl > delta * sr then begin
    match l with
    | Node { l = ll; r = lr; _ } ->
        if node_size lr < node_size ll then rotate_single_right l v r
        else rotate_double_right l v r
    | Leaf -> assert false
  end
  else mk l v r

let rec insert_node n entry =
  match n with
  | Leaf -> mk Leaf entry Leaf
  | Node { l; v; r; _ } ->
      let c = compare_entry entry v in
      if c = 0 then mk l entry r
      else if c < 0 then balance (insert_node l entry) v r
      else balance l v (insert_node r entry)

let rec min_node = function
  | Leaf -> None
  | Node { l = Leaf; v; _ } -> Some v
  | Node { l; _ } -> min_node l

let rec remove_min = function
  | Leaf -> Leaf
  | Node { l = Leaf; r; _ } -> r
  | Node { l; v; r; _ } -> balance (remove_min l) v r

let rec remove_node n entry =
  match n with
  | Leaf -> Leaf
  | Node { l; v; r; _ } ->
      let c = compare_entry entry v in
      if c < 0 then balance (remove_node l entry) v r
      else if c > 0 then balance l v (remove_node r entry)
      else begin
        match (l, r) with
        | Leaf, _ -> r
        | _, Leaf -> l
        | _ -> (
            match min_node r with
            | Some succ -> balance l succ (remove_min r)
            | None -> assert false)
      end

let insert t ~pk row = t.root <- insert_node t.root { e_key = t.key_of row; e_pk = pk }
let remove t ~pk row = t.root <- remove_node t.root { e_key = t.key_of row; e_pk = pk }

let entry_pair e = (e.e_key, e.e_pk)

let min_entry t ?above () =
  let rec go n best =
    match n with
    | Leaf -> best
    | Node { l; v; r; _ } -> (
        match above with
        | Some floor when List.compare Value.compare v.e_key floor <= 0 -> go r best
        | Some _ | None -> go l (Some v))
  in
  Option.map entry_pair (go t.root None)

let max_entry t =
  let rec go = function
    | Leaf -> None
    | Node { v; r = Leaf; _ } -> Some v
    | Node { r; _ } -> go r
  in
  Option.map entry_pair (go t.root)

(* lexicographic bound tests: a short bound acts as a prefix bound *)
let rec cmp_prefix key bound =
  match (key, bound) with
  | _, [] -> 0 (* bound exhausted: equal on the prefix *)
  | [], _ -> -1
  | k :: ks, b :: bs ->
      let c = Value.compare k b in
      if c <> 0 then c else cmp_prefix ks bs

let range t ?lo ?hi () =
  let ge_lo key = match lo with None -> true | Some b -> cmp_prefix key b >= 0 in
  let le_hi key = match hi with None -> true | Some b -> cmp_prefix key b <= 0 in
  let rec go n acc =
    match n with
    | Leaf -> acc
    | Node { l; v; r; _ } ->
        let acc = if le_hi v.e_key then go r acc else acc in
        let acc =
          if ge_lo v.e_key && le_hi v.e_key then entry_pair v :: acc else acc
        in
        if ge_lo v.e_key then go l acc else acc
  in
  go t.root []

let prefix t p = range t ~lo:p ~hi:p ()

let fold_ascending t ~init ~f =
  let rec go n acc =
    match n with
    | Leaf -> acc
    | Node { l; v; r; _ } -> go r (f (go l acc) v.e_key v.e_pk)
  in
  go t.root init

let invariant_ok t =
  let rec check = function
    | Leaf -> Some (None, None, 0)
    | Node { l; v; r; size } -> (
        match (check l, check r) with
        | Some (lmin, lmax, ls), Some (rmin, rmax, rs) ->
            let ordered =
              (match lmax with Some m -> compare_entry m v < 0 | None -> true)
              && match rmin with Some m -> compare_entry v m < 0 | None -> true
            in
            if ordered && size = 1 + ls + rs then
              Some
                ( (match lmin with Some _ -> lmin | None -> Some v),
                  (match rmax with Some _ -> rmax | None -> Some v),
                  size )
            else None
        | _ -> None)
  in
  Option.is_some (check t.root)

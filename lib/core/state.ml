module Tid = Threads_util.Tid

type t = { objs : Spec_obj.t array; vals : Value.t array }

let empty = { objs = [| Spec_obj.alerts |]; vals = [| Value.Set Tid.Set.empty |] }

let check obj v =
  if not (Value.has_sort v obj.Spec_obj.sort) then
    invalid_arg
      (Format.asprintf "State: %a cannot hold %a" Spec_obj.pp obj Value.pp v)

(* The slot of [oid], or [-1 - i] when it is absent and belongs at [i]. *)
let find st oid =
  let rec go i =
    let o = if i = Array.length st.objs then max_int else st.objs.(i).Spec_obj.oid in
    if oid = o then i else if oid < o then -1 - i else go (i + 1)
  in
  go 0

let slot st obj =
  let i = find st obj.Spec_obj.oid in
  if i < 0 then raise Not_found else i

let get st obj = st.vals.(slot st obj)

let replace a i x =
  let a = Array.copy a in
  a.(i) <- x;
  a

let add obj v st =
  check obj v;
  match find st obj.Spec_obj.oid with
  | i when i >= 0 -> { objs = replace st.objs i obj; vals = replace st.vals i v }
  | i ->
    let at = -1 - i in
    let insert a x =
      Array.concat [ Array.sub a 0 at; [| x |]; Array.sub a at (Array.length a - at) ]
    in
    { objs = insert st.objs obj; vals = insert st.vals v }

let set_slot st i v = { st with vals = replace st.vals i v }

let set st obj v =
  let i = find st obj.Spec_obj.oid in
  if i < 0 then invalid_arg (Format.asprintf "State.set: unbound %a" Spec_obj.pp obj);
  check obj v;
  set_slot st i v

let copy st = { st with vals = Array.copy st.vals }
let write st i v = st.vals.(i) <- v
let alerts st = Value.as_set (get st Spec_obj.alerts)
let set_alerts st s = set_slot st (slot st Spec_obj.alerts) (Value.Set s)
let objects st = Array.to_list st.objs

(* As a map from objects to values: by (oid, value) pairs, a prefix first. *)
let compare a b =
  let rec go i =
    if i = Array.length a.objs || i = Array.length b.objs then
      Int.compare (Array.length a.objs) (Array.length b.objs)
    else
      match Spec_obj.compare a.objs.(i) b.objs.(i) with
      | 0 -> ( match Value.compare a.vals.(i) b.vals.(i) with 0 -> go (i + 1) | c -> c)
      | c -> c
  in
  go 0

let equal a b = compare a b = 0

let pp ppf st =
  Format.fprintf ppf "@[<hv>";
  Array.iteri
    (fun i obj -> Format.fprintf ppf "%a = %a;@ " Spec_obj.pp obj Value.pp st.vals.(i))
    st.objs;
  Format.fprintf ppf "@]"

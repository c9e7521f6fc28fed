module M = Firefly.Machine

(* GoodLock-style lock-order graph (Havelund 2000): one edge h → l per
   observed "attempted or succeeded acquiring l while holding h".  A cycle
   means two threads ordered the same locks differently somewhere in the
   run — a potential deadlock even if this schedule survived.  Attempts
   count as well as successes, so the classic AB/BA deadlock (where the
   inner acquisitions never succeed) still closes its cycle. *)

type edge = { e_from : int; e_to : int; e_tid : int; e_seq : int }

type report = {
  locks : int list;  (** every lock id seen, ascending *)
  edges : edge list;  (** deduped by (from, to); first witness kept *)
  cycles : int list list;
      (** each cycle as its sorted member list; includes self-loops *)
}

(* Tarjan's strongly-connected components over the edge list. *)
let sccs nodes edges =
  let adj = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let cur = Option.value (Hashtbl.find_opt adj e.e_from) ~default:[] in
      Hashtbl.replace adj e.e_from (e.e_to :: cur))
    edges;
  let index = Hashtbl.create 16 in
  let low = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let out = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace low v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace low v
            (min (Hashtbl.find low v) (Hashtbl.find low w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace low v
            (min (Hashtbl.find low v) (Hashtbl.find index w)))
      (Option.value (Hashtbl.find_opt adj v) ~default:[]);
    if Hashtbl.find low v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if w = v then w :: acc else pop (w :: acc)
      in
      out := pop [] :: !out
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) nodes;
  !out

let of_acquisitions acqs =
  let locks = Hashtbl.create 16 in
  let seen = Hashtbl.create 16 in
  let edges = ref [] in
  List.iter
    (fun (tid, lock, held, seq) ->
      Hashtbl.replace locks lock ();
      List.iter
        (fun h ->
          Hashtbl.replace locks h ();
          if not (Hashtbl.mem seen (h, lock)) then begin
            Hashtbl.add seen (h, lock) ();
            edges :=
              { e_from = h; e_to = lock; e_tid = tid; e_seq = seq } :: !edges
          end)
        held)
    acqs;
  let edges = List.rev !edges in
  let locks =
    Hashtbl.fold (fun l () acc -> l :: acc) locks [] |> List.sort compare
  in
  let self_loops =
    List.filter_map
      (fun e -> if e.e_from = e.e_to then Some [ e.e_from ] else None)
      edges
  in
  let multi =
    sccs locks edges
    |> List.filter (fun c -> List.length c > 1)
    |> List.map (List.sort compare)
  in
  let cycles = List.sort compare (multi @ self_loops) in
  { locks; edges; cycles }

(* From the machine stream: successful acquisitions (probe events) plus
   every TAS — failed or won — on a W_lock word, each an ordering claim
   "wants l while holding held". *)
let of_accesses ~word_kind accesses =
  let acqs =
    List.filter_map
      (fun (a : M.access) ->
        match a.a_kind with
        | M.A_lock_acq | M.A_lock_att ->
          Some (a.a_tid, a.a_addr, a.a_locks, a.a_seq)
        | M.A_tas _ when word_kind a.a_addr = Some M.W_lock ->
          Some (a.a_tid, a.a_addr, a.a_locks, a.a_seq)
        | _ -> None)
      accesses
  in
  of_acquisitions acqs

(* From the mutex events of a spec trace: replay each thread's held set
   (events are in per-thread program order, which is all the held-set
   reconstruction needs). *)
let of_lock_events events =
  let held : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let rec remove_first x = function
    | [] -> []
    | y :: rest -> if x = y then rest else y :: remove_first x rest
  in
  let acqs = ref [] in
  List.iteri
    (fun i (tid, lock, acquire) ->
      let cur = Option.value (Hashtbl.find_opt held tid) ~default:[] in
      if acquire then begin
        acqs := (tid, lock, cur, i) :: !acqs;
        Hashtbl.replace held tid (lock :: cur)
      end
      else Hashtbl.replace held tid (remove_first lock cur))
    events;
  of_acquisitions (List.rev !acqs)

let pp_cycle ~lock_name ppf cycle =
  Format.fprintf ppf "lock-order: cycle {%s}: the locks are acquired in \
                      incompatible orders (potential deadlock)"
    (String.concat ", " (List.map lock_name cycle))

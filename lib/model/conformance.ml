module Tid = Threads_util.Tid
open Spec_core

type error = { index : int; event : Spec_trace.event; message : string }

type report = {
  events : int;
  errors : error list;
  requires_violations : error list;
}

let ok r = r.errors = []

let pp_report ppf r =
  Format.fprintf ppf "%d events, %d violations, %d requires-violations"
    r.events (List.length r.errors)
    (List.length r.requires_violations);
  List.iter
    (fun e ->
      Format.fprintf ppf "@\n  [%d] %a: %s" e.index Spec_trace.pp_event
        e.event e.message)
    r.errors

let fail fmt = Printf.ksprintf failwith fmt

(* A kind of the vocabulary as the interface knows it: its procedure,
   with [n] actions, and the position of its action there (-1 if the
   procedure has no such action). *)
type target = { proc : Semantics.proc; spec : Proc.t; n : int; pos : int }

(* The targets of an interface by [Spec_trace.kind], [None] where it
   lacks the procedure: built once per interface. *)
let targets =
  Semantics.memo (fun iface ->
      let compiled = Semantics.compile iface in
      let target k =
        let proc_name, name = Spec_trace.kind_names k in
        match Semantics.find compiled proc_name with
        | exception Not_found -> None
        | proc ->
          let spec = Semantics.spec proc in
          let actions = Proc.actions spec in
          let pos = List.find_index (fun (a : Proc.action) -> a.a_name = name) actions in
          let pos = Option.value pos ~default:(-1) in
          Some { proc; spec; n = List.length actions; pos }
      in
      Array.init Spec_trace.kinds target)

(* A call as the replay keeps it: the procedure applied to the ids [x]
   and [y] an action names ([first_id], [second_id]), and the slots of
   its first two objects (-1 if not an object), which the abstraction
   function writes. *)
type call = {
  proc : Semantics.proc;
  x : int; y : int;
  call : Semantics.call;
  a : int; b : int;
}

(* A thread's unfinished composition and the index of its next action. *)
type thread = { mutable mid : (target * int) option }

(* Replay context.  [pre] is the abstract state before the current event
   and [post] a private copy of it: the abstraction function writes the
   event's effect into [post] and lists the slots in [written], which are
   then copied back into [pre]. *)
type ctx = {
  iface : Proc.interface;
  targets : target option array;
  mutable pre : State.t;
  mutable post : State.t;
  mutable written : int list;
  objs : (int, Spec_obj.t) Hashtbl.t;  (* impl object id -> spec object *)
  mutable seen : call list;
      (* each call made, until a new object shifts the slots *)
  mutable threads : (Tid.t * thread) list;
  mutable errors : error list;
  mutable requires_violations : error list;
}

let obj_for ctx ~sort ~impl_id =
  match Hashtbl.find_opt ctx.objs impl_id with
  | Some o ->
    if not (Sort.equal o.Spec_obj.sort sort) then
      failwith
        (Format.asprintf "object #%d used at two sorts (%a vs %a)" impl_id
           Sort.pp o.Spec_obj.sort Sort.pp sort);
    o
  | None ->
    (* Deterministic identity derived from the impl id (a machine-local
       address or negative trace id), so error messages that print the
       object are byte-identical whichever domain ran the check.  Impl
       ids are unique per machine; [+1] keeps 0 free for [alerts]. *)
    let oid = if impl_id >= 0 then impl_id + 1 else impl_id in
    let o = Spec_obj.make ~oid ("o" ^ string_of_int impl_id) sort in
    Hashtbl.replace ctx.objs impl_id o;
    ctx.pre <- State.add o (Value.initial sort) ctx.pre;
    ctx.post <- State.copy ctx.pre;
    (* An object slotted before others shifts them: forget the calls. *)
    if State.slot ctx.pre o < Array.length ctx.pre.State.vals - 1 then ctx.seen <- [];
    o

(* The first and second id a call is applied to: its objects, or
   Alert's target, in the order of [Spec_trace.args]; 0 past the last. *)
let first_id : Spec_trace.action -> int = function
  | Acquire { m } | Release { m } | Enqueue { m; _ } | Resume { m; _ }
  | AlertResume { m; _ } | TimedResume { m; _ } -> m
  | Signal { c; _ } | Broadcast { c; _ } -> c
  | P { s } | V { s } | AlertP { s; _ } | TimedP { s; _ } -> s
  | Alert { t } -> t
  | TestAlert _ -> 0

let second_id : Spec_trace.action -> int = function
  | Enqueue { c; _ } | Resume { c; _ } | AlertResume { c; _ } | TimedResume { c; _ } -> c
  | _ -> 0

(* The call [ev] makes: one made before ([seen]), or resolved now — the
   arguments bound to the formals by name (creating spec objects on first
   sight).  Raises [Failure] if there is none. *)
let rec resolve ctx (t : target) (ev : Spec_trace.event) x y = function
  | c :: rest ->
    if c.proc == t.proc && c.x = x && c.y = y then c else resolve ctx t ev x y rest
  | [] ->
    let args = Spec_trace.args ev.action in
    let bind (f : Proc.formal) =
      match List.assoc_opt f.f_name args with
      | None -> fail "event lacks argument %s" f.f_name
      | Some id -> (
        match f.f_mode with
        | Proc.By_value -> Term.Const (Value.Thread id)
        | Proc.By_var ->
          let sort = Proc.sort_of_type ctx.iface f.f_type in
          Term.Obj (obj_for ctx ~sort ~impl_id:id))
    in
    let b = List.map bind t.spec.p_formals in
    (* The slot of the object bound to the [i]th argument. *)
    let slot i =
      match Option.map snd (List.nth_opt args i) with
      | Some id when Hashtbl.mem ctx.objs id ->
        State.slot ctx.pre (Hashtbl.find ctx.objs id)
      | _ -> -1
    in
    let call = Semantics.call t.proc b ctx.pre in
    let c = { proc = t.proc; x; y; call; a = slot 0; b = slot 1 } in
    ctx.seen <- c :: ctx.seen;
    c

let write ctx slot v =
  State.write ctx.post slot v;
  ctx.written <- slot :: ctx.written

let members ctx slot = Value.as_set ctx.post.State.vals.(slot)
let insert ctx slot t = write ctx slot (Value.Set (Tid.Set.add t (members ctx slot)))
let remove ctx slot t = write ctx slot (Value.Set (Tid.Set.remove t (members ctx slot)))
let alerts ctx = State.slot ctx.post Spec_obj.alerts

(* The slot of [ev]'s [i]th argument, which must be an object. *)
let arg (ev : Spec_trace.event) slot i =
  if slot < 0 then
    fail "expected VAR argument %s" (fst (List.nth (Spec_trace.args ev.action) i));
  slot

(* The abstraction function, applied per event: write the abstract post
   state the implementation's action denotes.  This encodes only which
   procedure touched what — the legality of the transition is judged
   afterwards by the spec clauses. *)
let post_of ctx c (ev : Spec_trace.event) =
  let me = ev.self in
  match ev.action with
  | Acquire _ | Resume _ | AlertResume { alerted = false; _ }
  | TimedResume { timed_out = false; _ } ->
    write ctx (arg ev c.a 0) (Value.Thread me)
  | Release _ -> write ctx (arg ev c.a 0) Value.Nil
  | Enqueue _ ->
    insert ctx (arg ev c.b 1) me;
    write ctx (arg ev c.a 0) Value.Nil
  | TimedResume { timed_out = true; _ } ->
    remove ctx (arg ev c.b 1) me;
    write ctx (arg ev c.a 0) (Value.Thread me)
  | AlertResume { alerted = true; _ } ->
    remove ctx (arg ev c.b 1) me;
    write ctx (arg ev c.a 0) (Value.Thread me);
    remove ctx (alerts ctx) me
  | Signal { removed; _ } | Broadcast { removed; _ } ->
    let slot = arg ev c.a 0 in
    let remove acc t = Tid.Set.remove t acc in
    write ctx slot (Value.Set (List.fold_left remove (members ctx slot) removed))
  | P _ | AlertP { alerted = false; _ } | TimedP { timed_out = false; _ } ->
    write ctx (arg ev c.a 0) (Value.Sem Value.Unavailable)
  | V _ -> write ctx (arg ev c.a 0) (Value.Sem Value.Available)
  | Alert { t } -> insert ctx (alerts ctx) t
  | TestAlert _ | AlertP { alerted = true; _ } -> remove ctx (alerts ctx) me
  | TimedP { timed_out = true; _ } -> ()

(* Composition sequencing per thread: the index of the action [ev]
   performs, [t.pos]; raises [Failure] if it is out of sequence. *)
let next_action ctx th (t : target) c index (ev : Spec_trace.event) =
  let name (t : target) k = (List.nth (Proc.actions t.spec) k).a_name in
  match th.mid with
  | Some (mid, k) ->
    if mid.proc != t.proc then
      fail "thread is mid-%s but emitted a %s event" mid.spec.p_name
        (Spec_trace.proc_name ev.action);
    if k <> t.pos then
      fail "expected action %s of %s, got %s" (name mid k) mid.spec.p_name
        (Spec_trace.action_name ev.action);
    th.mid <- (if k + 1 = mid.n then None else Some (mid, k + 1));
    k
  | None ->
    if t.n = 0 then failwith "procedure with no actions";
    if t.pos <> 0 then
      fail "expected first action %s of %s, got %s" (name t 0) t.spec.p_name
        (Spec_trace.action_name ev.action);
    (* REQUIRES is the caller's obligation at the first action. *)
    if not (Semantics.requires_holds c.call ~self:ev.self ctx.pre) then
      ctx.requires_violations <-
        { index; event = ev; message = "REQUIRES violated by caller" }
        :: ctx.requires_violations;
    if t.n > 1 then th.mid <- Some (t, 1);
    0

(* Copy the written slots from [src] to [dst]: forward once the event is
   checked, back when the abstraction function failed. *)
let sync ctx ~src ~dst =
  let rec copy = function
    | [] -> ctx.written <- []
    | s :: rest -> State.write dst s src.State.vals.(s); copy rest
  in
  copy ctx.written

let error ctx index event message = ctx.errors <- { index; event; message } :: ctx.errors
let returns_true = Some (Value.Bool true)
let returns_false = Some (Value.Bool false)

let step ctx index (ev : Spec_trace.event) =
  let th =
    try List.assq ev.self ctx.threads
    with Not_found ->
      let th = { mid = None } in
      ctx.threads <- (ev.self, th) :: ctx.threads;
      th
  in
  match ctx.targets.(Spec_trace.kind ev.action) with
  | None -> error ctx index ev "no such procedure in the interface"
  | Some t -> (
  match resolve ctx t ev (first_id ev.action) (second_id ev.action) ctx.seen with
  | exception Failure message -> error ctx index ev message
  | c -> (
    match next_action ctx th t c index ev with
    | exception Failure message -> error ctx index ev message
    | k -> (
      match post_of ctx c ev with
      | exception Failure message ->
        sync ctx ~src:ctx.pre ~dst:ctx.post;
        error ctx index ev message
      | () -> (
        let outcome =
          match Spec_trace.raises ev.action with
          | None -> Proc.Returns
          | Some e -> Proc.Raises e
        in
        let result =
          match ev.action with
          | TestAlert { result } -> if result then returns_true else returns_false
          | _ -> None
        in
        let verdict =
          Semantics.check_transition c.call ~self:ev.self k ~pre:ctx.pre ~post:ctx.post
            ~outcome ~result
        in
        sync ctx ~src:ctx.post ~dst:ctx.pre;
        match verdict with
        | Ok _case -> ()
        | Error message -> error ctx index ev message))))

let check iface trace =
  let ctx =
    { iface; targets = targets iface;
      pre = State.copy State.empty; post = State.copy State.empty; written = [];
      objs = Hashtbl.create 16; seen = []; threads = []; errors = [];
      requires_violations = [] }
  in
  List.iteri (fun i ev -> step ctx i ev) trace;
  { events = List.length trace; errors = List.rev ctx.errors;
    requires_violations = List.rev ctx.requires_violations }

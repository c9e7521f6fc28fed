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

(* The abstraction function's cases, one per action of the Threads
   interface.  They are resolved from the names when a trace first makes
   a call, so no name is matched per event. *)
type abstraction =
  | Acquire | Release | Enqueue | Resume | Timed_resume | Alert_resume
  | Signal | P | V | Alert | Test_alert | Alert_p | Timed_p | Unknown

let abstraction proc (a : Proc.action) =
  match (proc, a.a_name) with
  | "Acquire", _ -> Acquire
  | "Release", _ -> Release
  | ("Wait" | "AlertWait" | "TimedWait"), "Enqueue" -> Enqueue
  | "Wait", "Resume" -> Resume
  | "TimedWait", "TimedResume" -> Timed_resume
  | "AlertWait", "AlertResume" -> Alert_resume
  | ("Signal" | "Broadcast"), _ -> Signal
  | "P", _ -> P | "V", _ -> V | "Alert", _ -> Alert | "TestAlert", _ -> Test_alert
  | "AlertP", _ -> Alert_p | "TimedP", _ -> Timed_p
  | _ -> Unknown

(* A call as the replay keeps it: the procedure compiled and applied to
   the event's arguments, each action with its abstraction, and what the
   abstraction reads — the slots of the [m], [c] and [s] arguments (-1
   if not an object) and the [t] argument. *)
type call = {
  proc : Proc.t;
  call : Semantics.call;
  actions : (Proc.action * abstraction) array;
  m : int; c : int; s : int;
  t : Term.binding option;
}

(* A thread's unfinished composition and the index of its next action. *)
type thread = { mutable mid : (call * int) option }

(* Replay context.  [pre] is the abstract state before the current event
   and [post] a private copy of it: the abstraction function writes the
   event's effect into [post] and lists the slots in [written], which are
   then copied back into [pre]. *)
type ctx = {
  iface : Proc.interface;
  compiled : Semantics.t;
  mutable pre : State.t;
  mutable post : State.t;
  mutable written : int list;
  objs : (int, Spec_obj.t) Hashtbl.t;  (* impl object id -> spec object *)
  mutable seen : (Spec_trace.event * call) list;
      (* an event of each call made, until a new object shifts the slots *)
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

let rec same_args a b =
  match (a, b) with
  | [], [] -> true
  | (n, x) :: a, (n', x') :: b ->
    String.equal n n'
    && (match (x, x') with
       | Spec_trace.Obj i, Spec_trace.Obj j | Spec_trace.Thr i, Spec_trace.Thr j -> i = j
       | _ -> false)
    && same_args a b
  | _ -> false

(* The binding of the formal called [name]. *)
let rec named name (formals : Proc.formal list) bindings =
  match (formals, bindings) with
  | f :: formals, b :: bindings ->
    if f.f_name = name then Some b else named name formals bindings
  | _ -> None

(* The call [ev] makes: one made before, or resolved now — the procedure
   found, the arguments bound to the formals (creating spec objects on
   first sight).  Raises [Failure] if there is none. *)
let rec resolve ctx (ev : Spec_trace.event) = function
  | ((seen : Spec_trace.event), c) :: rest ->
    if String.equal seen.proc ev.proc && same_args seen.args ev.args then c
    else resolve ctx ev rest
  | [] ->
    let compiled =
      try Semantics.find ctx.compiled ev.proc
      with Not_found -> failwith "no such procedure in the interface"
    in
    let p = Semantics.spec compiled in
    let bind (f : Proc.formal) =
      match List.assoc_opt f.f_name ev.args with
      | None -> fail "event lacks argument %s" f.f_name
      | Some (Spec_trace.Obj impl_id) ->
        Term.Obj (obj_for ctx ~sort:(Proc.sort_of_type ctx.iface f.f_type) ~impl_id)
      | Some (Spec_trace.Thr t) -> Term.Const (Value.Thread t)
    in
    let b = List.map bind p.p_formals in
    let slot name =
      match named name p.p_formals b with
      | Some (Term.Obj o) -> State.slot ctx.pre o
      | _ -> -1
    in
    let c =
      { proc = p; call = Semantics.call compiled b ctx.pre;
        actions =
          Array.of_list
            (List.map (fun a -> (a, abstraction p.p_name a)) (Proc.actions p));
        m = slot "m"; c = slot "c"; s = slot "s"; t = named "t" p.p_formals b }
    in
    ctx.seen <- (ev, c) :: ctx.seen;
    c

let write ctx slot v =
  State.write ctx.post slot v;
  ctx.written <- slot :: ctx.written

let members ctx slot = Value.as_set ctx.post.State.vals.(slot)
let insert ctx slot t = write ctx slot (Value.Set (Tid.Set.add t (members ctx slot)))
let remove ctx slot t = write ctx slot (Value.Set (Tid.Set.remove t (members ctx slot)))
let alerts ctx = State.slot ctx.post Spec_obj.alerts

let arg slot name =
  if slot < 0 then fail "expected VAR argument %s" name;
  slot

(* The abstraction function, applied per event: write the abstract post
   state the implementation's action denotes.  This encodes only which
   procedure touched what — the legality of the transition is judged
   afterwards by the spec clauses. *)
let post_of ctx c abs (ev : Spec_trace.event) =
  let me = ev.self in
  match (abs, ev.outcome) with
  | (Acquire | Resume), _ | (Timed_resume | Alert_resume), Spec_trace.Ret ->
    write ctx (arg c.m "m") (Value.Thread me)
  | Release, _ -> write ctx (arg c.m "m") Value.Nil
  | Enqueue, _ ->
    insert ctx (arg c.c "c") me;
    write ctx (arg c.m "m") Value.Nil
  | Timed_resume, Spec_trace.Raise _ ->
    remove ctx (arg c.c "c") me;
    write ctx (arg c.m "m") (Value.Thread me)
  | Alert_resume, Spec_trace.Raise _ ->
    remove ctx (arg c.c "c") me;
    write ctx (arg c.m "m") (Value.Thread me);
    remove ctx (alerts ctx) me
  | Signal, _ ->
    let slot = arg c.c "c" in
    let remove acc t = Tid.Set.remove t acc in
    write ctx slot (Value.Set (List.fold_left remove (members ctx slot) ev.removed))
  | (P | Alert_p | Timed_p), Spec_trace.Ret | P, _ ->
    write ctx (arg c.s "s") (Value.Sem Value.Unavailable)
  | V, _ -> write ctx (arg c.s "s") (Value.Sem Value.Available)
  | Alert, _ -> (
    match c.t with
    | Some (Term.Const (Value.Thread target)) -> insert ctx (alerts ctx) target
    | _ -> failwith "expected thread argument t")
  | Test_alert, _ | Alert_p, Spec_trace.Raise _ -> remove ctx (alerts ctx) me
  | Timed_p, Spec_trace.Raise _ -> ()
  | Unknown, _ -> fail "unknown event %s.%s" ev.proc ev.action

(* Composition sequencing per thread: the index of the action [ev]
   performs; raises [Failure] if it is out of sequence. *)
let next_action ctx th c index (ev : Spec_trace.event) =
  match th.mid with
  | Some (mid, k) ->
    let name = (fst mid.actions.(k)).a_name in
    if mid.proc.p_name <> ev.proc then
      fail "thread is mid-%s but emitted a %s event" mid.proc.p_name ev.proc;
    if name <> ev.action then
      fail "expected action %s of %s, got %s" name mid.proc.p_name ev.action;
    th.mid <- (if k + 1 = Array.length mid.actions then None else Some (mid, k + 1));
    k
  | None ->
    if Array.length c.actions = 0 then failwith "procedure with no actions";
    let first = (fst c.actions.(0)).a_name in
    if first <> ev.action then
      fail "expected first action %s of %s, got %s" first ev.proc ev.action;
    (* REQUIRES is the caller's obligation at the first action. *)
    if not (Semantics.requires_holds c.call ~self:ev.self ctx.pre) then
      ctx.requires_violations <-
        { index; event = ev; message = "REQUIRES violated by caller" }
        :: ctx.requires_violations;
    if Array.length c.actions > 1 then th.mid <- Some (c, 1);
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
  match resolve ctx ev ctx.seen with
  | exception Failure message -> error ctx index ev message
  | c -> (
    match next_action ctx th c index ev with
    | exception Failure message -> error ctx index ev message
    | k -> (
      match post_of ctx c (snd c.actions.(k)) ev with
      | exception Failure message ->
        sync ctx ~src:ctx.pre ~dst:ctx.post;
        error ctx index ev message
      | () -> (
        let outcome =
          match ev.outcome with Spec_trace.Ret -> Proc.Returns | Raise e -> Proc.Raises e
        in
        let result =
          match ev.result_bool with
          | None -> None
          | Some b -> if b then returns_true else returns_false
        in
        let verdict =
          Semantics.check_transition c.call ~self:ev.self k ~pre:ctx.pre ~post:ctx.post
            ~outcome ~result
        in
        sync ctx ~src:ctx.post ~dst:ctx.pre;
        match verdict with Ok _case -> () | Error message -> error ctx index ev message)))

let check iface trace =
  let ctx =
    { iface; compiled = Semantics.compile iface; pre = State.copy State.empty;
      post = State.copy State.empty; written = []; objs = Hashtbl.create 16;
      seen = []; threads = []; errors = []; requires_violations = [] }
  in
  List.iteri (fun i ev -> step ctx i ev) trace;
  { events = List.length trace; errors = List.rev ctx.errors;
    requires_violations = List.rev ctx.requires_violations }

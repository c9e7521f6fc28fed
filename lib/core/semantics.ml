module Tid = Threads_util.Tid

type outcome = {
  o_case : int;
  o_outcome : Proc.outcome;
  o_post : State.t;
  o_result : Value.t option;
}

let error fmt = Format.kasprintf (fun s -> raise (Term.Eval_error s)) fmt

(* ---- the clause compiler ---- *)

(* A VAR argument is a slot of the state ([vals] holds [Nil] there); a
   by-value argument has slot -1 and its value in [vals]. *)
type args = { slots : int array; vals : Value.t array; alerts : int }

type 'a clause = args -> Value.t -> State.t -> State.t -> Value.t option -> 'a

let args bindings layout =
  let n = List.length bindings in
  let slots = Array.make n (-1) and vals = Array.make n Value.Nil in
  List.iteri
    (fun i -> function
      | Term.Obj o -> slots.(i) <- State.slot layout o
      | Term.Const v -> vals.(i) <- v)
    bindings;
  { slots; vals; alerts = State.slot layout Spec_obj.alerts }

let position name formals = List.find_index (String.equal name) formals

(* A name resolves to the first formal so called, else to the global
   [alerts]; a [_post] reference to an object needs a two-state clause.
   What cannot resolve raises when it is evaluated, as an interpreter
   would, so a spec with an ill-formed clause still compiles. *)
let reference ~formals ~two_state name stage : Value.t clause =
  let one_state () = error "%s_post referenced in a one-state predicate" name in
  match (position name formals, stage) with
  | Some i, Term.Pre ->
    fun a _ pre _ _ ->
      if a.slots.(i) < 0 then a.vals.(i) else pre.State.vals.(a.slots.(i))
  | Some i, Term.Post when two_state ->
    fun a _ _ post _ ->
      if a.slots.(i) < 0 then a.vals.(i) else post.State.vals.(a.slots.(i))
  | Some i, Term.Post ->
    fun a _ _ _ _ -> if a.slots.(i) < 0 then a.vals.(i) else one_state ()
  | None, _ when name <> "alerts" -> fun _ _ _ _ _ -> error "unbound name %s" name
  | None, Term.Pre -> fun a _ pre _ _ -> pre.State.vals.(a.alerts)
  | None, Term.Post when two_state -> fun a _ _ post _ -> post.State.vals.(a.alerts)
  | None, Term.Post -> fun _ _ _ _ _ -> one_state ()

let lift2 f x y : _ clause =
  fun a me pre post r -> f (x a me pre post r) (y a me pre post r)

let const v : _ clause = fun _ _ _ _ _ -> v
let empty_set = Value.Set Tid.Set.empty

let rec term ~formals ~two_state (t : Term.t) : Value.t clause =
  let sub = term ~formals ~two_state in
  match t with
  | Term.Self -> fun _ me _ _ _ -> me
  | Term.Nil_const -> const Value.Nil
  | Term.Lit v -> const v
  | Term.Empty_set -> const empty_set
  | Term.Result ->
    fun _ _ _ _ -> (
      function Some v -> v | None -> error "RESULT referenced with no return value")
  | Term.Ref (name, stage) -> reference ~formals ~two_state name stage
  | Term.Insert (s, x) -> lift2 Value.insert (sub s) (sub x)
  | Term.Delete (s, x) -> lift2 Value.delete (sub s) (sub x)

let rec formula ~formals ~two_state (f : Formula.t) : bool clause =
  let sub = formula ~formals ~two_state and tm = term ~formals ~two_state in
  match f with
  | Formula.True -> const true
  | Formula.False -> const false
  | Formula.Truth t ->
    let t = tm t in
    fun a me pre post r -> Value.as_bool (t a me pre post r)
  | Formula.Eq (x, y) -> lift2 Value.equal (tm x) (tm y)
  | Formula.Iff (f, g) -> lift2 Bool.equal (sub f) (sub g)
  | Formula.Member (x, s) -> lift2 Value.member (tm x) (tm s)
  | Formula.Subset (x, y) -> lift2 Value.subset (tm x) (tm y)
  | Formula.Not f ->
    let f = sub f in
    fun a me pre post r -> not (f a me pre post r)
  | Formula.And (f, g) ->
    let f = sub f and g = sub g in
    fun a me pre post r -> f a me pre post r && g a me pre post r
  | Formula.Or (f, g) ->
    let f = sub f and g = sub g in
    fun a me pre post r -> f a me pre post r || g a me pre post r
  | Formula.Implies (f, g) ->
    let f = sub f and g = sub g in
    fun a me pre post r -> (not (f a me pre post r)) || g a me pre post r
  | Formula.Unchanged names ->
    let same name =
      lift2 Value.equal (tm (Term.Ref (name, Term.Pre))) (tm (Term.Ref (name, Term.Post)))
    in
    let sames = List.map same names in
    fun a me pre post r -> List.for_all (fun same -> same a me pre post r) sames

(* ---- compiled procedures ---- *)

type case = { spec_case : Proc.case; guard : bool clause; ensures : bool clause }

(* A MODIFIES name: a formal's position, the global [alerts], or a name
   that raises when the frame is needed. *)
type frame_name = Formal of int | Alerts | Unbound of string

type proc = {
  spec : Proc.t;
  requires : bool clause;
  actions : case array array;
  modifies : frame_name list;
  results : (Value.t option list, string) result;  (* or why RESULT has none *)
}

let compile_proc (p : Proc.t) =
  let formals = List.map (fun (f : Proc.formal) -> f.f_name) p.p_formals in
  let one = formula ~formals ~two_state:false in
  let case (c : Proc.case) =
    { spec_case = c; guard = one c.c_when;
      ensures = formula ~formals ~two_state:true c.c_ensures }
  in
  let frame_name name =
    match position name formals with
    | Some i -> Formal i
    | None -> if name = "alerts" then Alerts else Unbound name
  in
  let action (a : Proc.action) = Array.of_list (List.map case a.a_cases) in
  { spec = p; requires = one p.p_requires;
    actions = Array.of_list (List.map action (Proc.actions p));
    modifies = List.map frame_name p.p_modifies;
    results =
      (match p.p_returns with
      | None -> Ok [ None ]
      | Some (_, Sort.Bool) -> Ok [ Some (Value.Bool false); Some (Value.Bool true) ]
      | Some (_, Sort.Int) -> Ok [ Some (Value.Int 0) ]
      | Some (_, sort) ->
        Error (Format.asprintf "%s: unsupported return sort %a" p.p_name Sort.pp sort)) }

let spec p = p.spec

module Names = Map.Make (String)

type t = proc Names.t

(* The results for the last 32 interfaces, by identity.  Any domain may
   read the list; a domain that computes publishes its result with a
   compare-and-set, and if it loses a race the result is just not kept. *)
let memo f =
  let results = Atomic.make [] in
  fun (iface : Proc.interface) ->
    let seen = Atomic.get results in
    match List.assq_opt iface seen with
    | Some t -> t
    | None ->
      let t = f iface in
      let kept = List.filteri (fun i _ -> i < 31) seen in
      ignore (Atomic.compare_and_set results seen ((iface, t) :: kept));
      t

let compile =
  memo (fun iface ->
      let add t (p : Proc.t) =
        if Names.mem p.p_name t then t else Names.add p.p_name (compile_proc p) t
      in
      List.fold_left add Names.empty iface.i_procs)

let find t name = Names.find name t

(* ---- calls ---- *)

type call = { proc : proc; a : args }

let call proc bindings layout = { proc; a = args bindings layout }

let bindings_of_args iface (proc : Proc.t) args =
  let bad fmt = Format.kasprintf invalid_arg ("%s: " ^^ fmt) proc.p_name in
  let n = List.length proc.p_formals in
  if n <> List.length args then bad "expected %d arguments, got %d" n (List.length args);
  List.map2
    (fun (f : Proc.formal) arg ->
      let sort = Proc.sort_of_type iface f.f_type in
      match (f.f_mode, arg) with
      | Proc.By_var, `Obj obj ->
        if not (Sort.equal obj.Spec_obj.sort sort) then
          bad "VAR %s expects sort %a, got object %a" f.f_name Sort.pp sort Spec_obj.pp
            obj;
        Term.Obj obj
      | Proc.By_value, `Val v ->
        if not (Value.has_sort v sort) then
          bad "%s expects sort %a, got %a" f.f_name Sort.pp sort Value.pp v;
        Term.Const v
      | Proc.By_var, `Val _ -> bad "VAR formal %s needs an object" f.f_name
      | Proc.By_value, `Obj _ -> bad "by-value formal %s needs a value" f.f_name)
    proc.p_formals args

let requires_holds c ~self pre = c.proc.requires c.a (Value.Thread self) pre pre None

let enabled c ~self k pre =
  let me = Value.Thread self in
  List.filter (fun i -> c.proc.actions.(k).(i).guard c.a me pre pre None)
    (List.init (Array.length c.proc.actions.(k)) Fun.id)

(* The first unbound MODIFIES name raises before anything else. *)
let check_frame_names c =
  List.iter (function Unbound n -> error "unbound name %s" n | _ -> ()) c.proc.modifies

let rec modifiable a i = function
  | [] -> false
  | Formal j :: rest -> a.slots.(j) = i || modifiable a i rest
  | Alerts :: rest -> a.alerts = i || modifiable a i rest
  | Unbound _ :: rest -> modifiable a i rest

(* Thread identities that candidate set values may be built from: SELF,
   every by-value thread argument, and the current members of the set. *)
let relevant_threads a self s =
  let args =
    Array.fold_left (fun acc v -> match v with Value.Thread t -> t :: acc | _ -> acc) [] a.vals
  in
  List.sort_uniq Tid.compare ((self :: args) @ Tid.Set.elements s)

(* Each list is in [Value.compare] order, so the product below enumerates
   posts in [State.compare] order. *)
let candidate_values a self me v =
  let dedup vs = List.sort_uniq Value.compare vs in
  match v with
  | Value.Nil | Value.Thread _ -> dedup [ v; Value.Nil; me ]
  | Value.Sem _ -> [ Value.Sem Value.Available; Value.Sem Value.Unavailable ]
  | Value.Bool _ -> [ Value.Bool false; Value.Bool true ]
  | Value.Int _ -> [ v ]
  | Value.Set s ->
    dedup
      (v :: empty_set
      :: List.concat_map
           (fun t -> [ Value.Set (Tid.Set.add t s); Value.Set (Tid.Set.remove t s) ])
           (relevant_threads a self s))

(* The cartesian product of candidate values over the modified slots. *)
let candidate_posts a self me pre slots =
  let rec go st = function
    | [] -> [ st ]
    | s :: rest ->
      List.concat_map (fun v -> go (State.set_slot st s v) rest)
        (candidate_values a self me pre.State.vals.(s))
  in
  go pre slots

(* Cases in order, posts in [State.compare] order, results false before
   true: the outcomes come out sorted and distinct. *)
let outcomes c ~self k pre =
  let me = Value.Thread self in
  check_frame_names c;
  let results = match c.proc.results with Ok rs -> rs | Error m -> invalid_arg m in
  let slots = List.init (Array.length pre.State.vals) Fun.id in
  let posts =
    lazy
      (candidate_posts c.a self me pre
         (List.filter (fun i -> modifiable c.a i c.proc.modifies) slots))
  in
  let outcome i case post result =
    if case.ensures c.a me pre post result then
      Some
        { o_case = i; o_outcome = case.spec_case.c_outcome; o_post = post; o_result = result }
    else None
  in
  List.concat
    (List.mapi
       (fun i case ->
         if not (case.guard c.a me pre pre None) then []
         else
           List.concat_map (fun post -> List.filter_map (outcome i case post) results)
             (Lazy.force posts))
       (Array.to_list c.proc.actions.(k)))

(* The first slot outside MODIFIES whose value changed, or -1. *)
let rec frame_violation c pre post i =
  if i = Array.length pre.State.vals then -1
  else
    let before = pre.State.vals.(i) and after = post.State.vals.(i) in
    if before != after && (not (modifiable c.a i c.proc.modifies))
       && not (Value.equal before after)
    then i
    else frame_violation c pre post (i + 1)

let same_outcome (a : Proc.outcome) b =
  match (a, b) with Proc.Raises x, Proc.Raises y -> String.equal x y | _ -> a == b

(* Every case is evaluated, so an ill-formed later case raises even when
   an earlier one matches. *)
let rec first_match c me cases ~pre ~post ~outcome ~result i found =
  if i = Array.length cases then found
  else
    let case = cases.(i) in
    let holds =
      same_outcome case.spec_case.c_outcome outcome && case.guard c.a me pre pre None
      && case.ensures c.a me pre post result
    in
    first_match c me cases ~pre ~post ~outcome ~result (i + 1)
      (if found < 0 && holds then i else found)

let action_name c k = (List.nth (Proc.actions c.proc.spec) k).a_name

let check_transition c ~self k ~pre ~post ~outcome ~result =
  check_frame_names c;
  let me = Value.Thread self in
  let p = c.proc.spec and cases = c.proc.actions.(k) in
  match frame_violation c pre post 0 with
  | -1 -> (
    match first_match c me cases ~pre ~post ~outcome ~result 0 (-1) with
    | -1 ->
      let describe case =
        let when_ok = case.guard c.a me pre pre None in
        let kind_ok = same_outcome case.spec_case.c_outcome outcome in
        Format.asprintf "[%a: when=%b kind-match=%b ensures=%b]" Proc.pp_outcome
          case.spec_case.c_outcome when_ok kind_ok
          (when_ok && kind_ok && case.ensures c.a me pre post result)
      in
      Error
        (Format.asprintf "%s.%s by %a with outcome %a admitted by no case: %s"
           p.p_name (action_name c k) Tid.pp self Proc.pp_outcome outcome
           (String.concat " " (List.map describe (Array.to_list cases))))
    | i -> Ok i)
  | i ->
    Error
      (Format.asprintf "%s.%s by %a: modifies %a which is outside MODIFIES AT MOST"
         p.p_name (action_name c k) Tid.pp self Spec_obj.pp
         (List.nth (State.objects pre) i))

open Proc

(* Term and formula shorthands used only in this transcription. *)
let pre name = Term.Ref (name, Term.Pre)
let post name = Term.Ref (name, Term.Post)
let self = Term.Self
let nil = Term.Nil_const
let available = Term.Lit (Value.Sem Value.Available)
let unavailable = Term.Lit (Value.Sem Value.Unavailable)
let ( === ) a b = Formula.Eq (a, b)
let ( &&& ) a b = Formula.And (a, b)
let ( ||| ) a b = Formula.Or (a, b)
let mem x s = Formula.Member (x, s)
let not_ f = Formula.Not f
let unchanged names = Formula.Unchanged names
let insert s x = Term.Insert (s, x)
let delete s x = Term.Delete (s, x)

let var name ty = { f_name = name; f_mode = By_var; f_type = ty }
let byval name ty = { f_name = name; f_mode = By_value; f_type = ty }

let returns_case ?(when_ = Formula.True) ensures =
  { c_outcome = Returns; c_when = when_; c_ensures = ensures }

let raises_case exc ~when_ ensures =
  { c_outcome = Raises exc; c_when = when_; c_ensures = ensures }

let atomic_proc name ~formals ?returns ?(raises = [])
    ?(requires = Formula.True) ~modifies cases =
  {
    p_name = name;
    p_formals = formals;
    p_returns = returns;
    p_raises = raises;
    p_requires = requires;
    p_modifies = modifies;
    p_kind = Atomic { a_name = name; a_cases = cases };
  }

let composition name ~formals ?(raises = []) ?(requires = Formula.True)
    ~modifies actions =
  {
    p_name = name;
    p_formals = formals;
    p_returns = None;
    p_raises = raises;
    p_requires = requires;
    p_modifies = modifies;
    p_kind = Composition actions;
  }

(* TYPE Mutex = Thread INITIALLY NIL, etc. *)
let types =
  [
    { t_name = "Mutex"; t_sort = Sort.Thread; t_init = Value.Nil };
    {
      t_name = "Condition";
      t_sort = Sort.Thread_set;
      t_init = Value.Set Threads_util.Tid.Set.empty;
    };
    {
      t_name = "Semaphore";
      t_sort = Sort.Semaphore;
      t_init = Value.Sem Value.Available;
    };
  ]

let globals =
  [ ("alerts", Sort.Thread_set, Value.Set Threads_util.Tid.Set.empty) ]

let acquire =
  atomic_proc "Acquire" ~formals:[ var "m" "Mutex" ] ~modifies:[ "m" ]
    [ returns_case ~when_:(pre "m" === nil) (post "m" === self) ]

let release =
  atomic_proc "Release" ~formals:[ var "m" "Mutex" ]
    ~requires:(pre "m" === self) ~modifies:[ "m" ]
    [ returns_case (post "m" === nil) ]

let wait_enqueue =
  {
    a_name = "Enqueue";
    a_cases =
      [
        returns_case
          ((post "c" === insert (pre "c") self) &&& (post "m" === nil));
      ];
  }

let wait_resume =
  {
    a_name = "Resume";
    a_cases =
      [
        returns_case
          ~when_:((pre "m" === nil) &&& not_ (mem self (pre "c")))
          ((post "m" === self) &&& unchanged [ "c" ]);
      ];
  }

let wait =
  composition "Wait"
    ~formals:[ var "m" "Mutex"; var "c" "Condition" ]
    ~requires:(pre "m" === self) ~modifies:[ "m"; "c" ]
    [ wait_enqueue; wait_resume ]

let signal =
  atomic_proc "Signal" ~formals:[ var "c" "Condition" ] ~modifies:[ "c" ]
    [
      returns_case
        ((post "c" === Term.Empty_set) ||| Formula.Subset (post "c", pre "c"));
    ]

let broadcast =
  atomic_proc "Broadcast" ~formals:[ var "c" "Condition" ] ~modifies:[ "c" ]
    [ returns_case (post "c" === Term.Empty_set) ]

let p_proc =
  atomic_proc "P" ~formals:[ var "s" "Semaphore" ] ~modifies:[ "s" ]
    [ returns_case ~when_:(pre "s" === available) (post "s" === unavailable) ]

let v_proc =
  atomic_proc "V" ~formals:[ var "s" "Semaphore" ] ~modifies:[ "s" ]
    [ returns_case (post "s" === available) ]

let alert =
  atomic_proc "Alert" ~formals:[ byval "t" "Thread" ] ~modifies:[ "alerts" ]
    [ returns_case (post "alerts" === insert (pre "alerts") (pre "t")) ]

let test_alert =
  atomic_proc "TestAlert" ~formals:[]
    ~returns:("b", Sort.Bool)
    ~modifies:[ "alerts" ]
    [
      returns_case
        (Formula.Iff (Formula.Truth Term.Result, mem self (pre "alerts"))
        &&& (post "alerts" === delete (pre "alerts") self));
    ]

let alert_p =
  atomic_proc "AlertP" ~formals:[ var "s" "Semaphore" ] ~raises:[ "Alerted" ]
    ~modifies:[ "s"; "alerts" ]
    [
      returns_case ~when_:(pre "s" === available)
        ((post "s" === unavailable) &&& unchanged [ "alerts" ]);
      raises_case "Alerted"
        ~when_:(mem self (pre "alerts"))
        ((post "alerts" === delete (pre "alerts") self) &&& unchanged [ "s" ]);
    ]

let alert_wait_enqueue =
  {
    a_name = "Enqueue";
    a_cases =
      [
        returns_case
          ((post "c" === insert (pre "c") self)
          &&& (post "m" === nil)
          &&& unchanged [ "alerts" ]);
      ];
  }

let alert_resume =
  {
    a_name = "AlertResume";
    a_cases =
      [
        returns_case
          ~when_:((pre "m" === nil) &&& not_ (mem self (pre "c")))
          ((post "m" === self) &&& unchanged [ "c"; "alerts" ]);
        raises_case "Alerted"
          ~when_:((pre "m" === nil) &&& mem self (pre "alerts"))
          ((post "m" === self)
          &&& (post "c" === delete (pre "c") self)
          &&& (post "alerts" === delete (pre "alerts") self));
      ];
  }

let alert_wait =
  composition "AlertWait"
    ~formals:[ var "m" "Mutex"; var "c" "Condition" ]
    ~raises:[ "Alerted" ] ~requires:(pre "m" === self)
    ~modifies:[ "m"; "c"; "alerts" ]
    [ alert_wait_enqueue; alert_resume ]

(* Timed variants (this reproduction's extension, not in the paper).
   TimedP either takes the semaphore or gives up with the state intact;
   the raise case has no WHEN so expiry is always permitted — the spec
   constrains only what a timeout may change (nothing). *)
let timed_p =
  atomic_proc "TimedP" ~formals:[ var "s" "Semaphore" ] ~raises:[ "TimedOut" ]
    ~modifies:[ "s" ]
    [
      returns_case ~when_:(pre "s" === available) (post "s" === unavailable);
      raises_case "TimedOut" ~when_:Formula.True (unchanged [ "s" ]);
    ]

(* TimedWait = Enqueue; TimedResume.  A timed-out resume must still
   re-acquire the mutex, and deletes SELF from c — delete of a
   non-member is the identity, which is what a racing Broadcast (that
   already emptied c) leaves behind. *)
let timed_resume =
  {
    a_name = "TimedResume";
    a_cases =
      [
        returns_case
          ~when_:((pre "m" === nil) &&& not_ (mem self (pre "c")))
          ((post "m" === self) &&& unchanged [ "c" ]);
        raises_case "TimedOut"
          ~when_:(pre "m" === nil)
          ((post "m" === self) &&& (post "c" === delete (pre "c") self));
      ];
  }

let timed_wait =
  composition "TimedWait"
    ~formals:[ var "m" "Mutex"; var "c" "Condition" ]
    ~raises:[ "TimedOut" ] ~requires:(pre "m" === self)
    ~modifies:[ "m"; "c" ]
    [ wait_enqueue; timed_resume ]

let final =
  {
    i_name = "Threads";
    i_types = types;
    i_globals = globals;
    i_exceptions = [ "Alerted"; "TimedOut" ];
    i_procs =
      [
        acquire;
        release;
        wait;
        signal;
        broadcast;
        p_proc;
        v_proc;
        alert;
        test_alert;
        alert_p;
        alert_wait;
        timed_p;
        timed_wait;
      ];
  }

(* The three historical variants, each an edit of [final]'s AlertP or
   AlertResume. *)

let missing_mutex_guard =
  map_case "AlertWait" "AlertResume" 1
    (fun c -> { c with c_when = mem self (pre "alerts") })
    final

let must_raise =
  let unalerted c =
    { c with c_when = c.c_when &&& not_ (mem self (pre "alerts")) }
  in
  final
  |> map_case "AlertP" "AlertP" 0 unalerted
  |> map_case "AlertWait" "AlertResume" 0 unalerted

let nelson_bug =
  map_case "AlertWait" "AlertResume" 1
    (fun c ->
      {
        c with
        c_ensures =
          (post "m" === self)
          &&& (post "alerts" === delete (pre "alerts") self)
          &&& unchanged [ "c" ];
      })
    final

let variants =
  [
    ("final", final);
    ("missing-mutex-guard", missing_mutex_guard);
    ("must-raise", must_raise);
    ("nelson-bug", nelson_bug);
  ]

let source = Threads_lspec.source

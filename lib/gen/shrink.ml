module Plan = Threads_fault.Plan

type step = { st_size : int; st_weight : int; st_action : string }

(* ---- candidate enumeration ---- *)

let drop_nth i l = List.filteri (fun j _ -> j <> i) l
let set_nth i x l = List.mapi (fun j y -> if j = i then x else y) l

(* In-place simplifications of one op (strict weight decrease). *)
let simplify_op op =
  let halve w = w / 2 in
  match op with
  | Prog.Lock (ms, w) ->
    (if List.length ms > 1 then
       List.mapi (fun i _ -> Prog.Lock (drop_nth i ms, w)) ms
     else [])
    @ (if w > 0 then [ Prog.Lock (ms, halve w) ] else [])
  | Prog.Sem (s, w) -> if w > 0 then [ Prog.Sem (s, halve w) ] else []
  | Prog.Timed_sem (s, patience) ->
    if patience > 50 then [ Prog.Timed_sem (s, patience / 2) ] else []
  | Prog.Work w -> if w > 0 then [ Prog.Work (halve w) ] else []
  | Prog.Await _ | Prog.Timed_await _ | Prog.Alert_await _ | Prog.Set_flag _
  | Prog.Produce _ | Prog.Consume _ | Prog.Alert_peer _ | Prog.Poll_alert
  | Prog.Interrupt_v _ | Prog.Yield -> []

let candidates (s : Oracle.scenario) =
  let p = s.Oracle.program in
  let with_prog ?(what = "") prog =
    ( { s with Oracle.program = Prog.canonicalize prog },
      what )
  in
  let nworkers = List.length p.Prog.threads in
  let drop_workers =
    List.init nworkers (fun i ->
        with_prog
          ~what:(Printf.sprintf "drop worker %d" i)
          { p with Prog.threads = drop_nth i p.Prog.threads })
  in
  let drop_main_ops =
    List.init (List.length p.Prog.main) (fun j ->
        with_prog
          ~what:(Printf.sprintf "drop main op %d" j)
          { p with Prog.main = drop_nth j p.Prog.main })
  in
  let drop_worker_ops =
    List.concat
      (List.mapi
         (fun i ops ->
           List.init (List.length ops) (fun j ->
               with_prog
                 ~what:(Printf.sprintf "drop worker %d op %d" i j)
                 {
                   p with
                   Prog.threads = set_nth i (drop_nth j ops) p.Prog.threads;
                 }))
         p.Prog.threads)
  in
  let simplify_main =
    List.concat
      (List.mapi
         (fun j op ->
           List.map
             (fun op' ->
               with_prog
                 ~what:(Printf.sprintf "simplify main op %d" j)
                 { p with Prog.main = set_nth j op' p.Prog.main })
             (simplify_op op))
         p.Prog.main)
  in
  let simplify_workers =
    List.concat
      (List.mapi
         (fun i ops ->
           List.concat
             (List.mapi
                (fun j op ->
                  List.map
                    (fun op' ->
                      with_prog
                        ~what:(Printf.sprintf "simplify worker %d op %d" i j)
                        {
                          p with
                          Prog.threads =
                            set_nth i (set_nth j op' ops) p.Prog.threads;
                        })
                    (simplify_op op))
                ops))
         p.Prog.threads)
  in
  let plan_candidates =
    match s.Oracle.plan with
    | None -> []
    | Some plan ->
      ({ s with Oracle.plan = None }, "drop fault plan")
      :: List.map
           (fun plan' ->
             ( { s with Oracle.plan = Some plan' },
               "shrink fault plan" ))
           (Plan.shrink plan)
  in
  (* Big structural drops first: fastest route to small programs. *)
  drop_workers @ plan_candidates @ drop_main_ops @ drop_worker_ops
  @ simplify_main @ simplify_workers

(* ---- greedy fixpoint ---- *)

let minimize backend (scenario : Oracle.scenario) kind =
  let reference = Threads_backend.Backend.find "sim" in
  (* Liveness kinds need a differential guard: "stranded" must mean the
     {e backend} strands the program, not that shrinking broke the
     policy's coverage invariant and produced a program that deadlocks
     everywhere.  A candidate survives only if the reference conforming
     backend, [sim], still completes it. *)
  let reference_clean c =
    match kind with
    | Oracle.Violation _ | Oracle.Crashed _ | Oracle.Unexplained -> true
    | Oracle.Stranded | Oracle.Exhausted -> (
      match reference with
      | Some r when r.Threads_backend.Backend.name <> backend.Threads_backend.Backend.name -> (
        match Oracle.run r { c with Oracle.plan = None } with
        | Oracle.Pass _ -> true
        | Oracle.Fail _ -> false
        | exception Invalid_argument _ -> false)
      | _ -> true)
  in
  let accept c =
    match Oracle.run backend c with
    | Oracle.Fail (k, _) when Oracle.same_kind kind k -> reference_clean c
    | _ -> false
    | exception Invalid_argument _ -> false
  in
  let rec go s trail =
    match List.find_opt (fun (c, _) -> accept c) (candidates s) with
    | Some (c, what) ->
      let st =
        {
          st_size = Oracle.scenario_size c;
          st_weight = Oracle.scenario_weight c;
          st_action = what;
        }
      in
      go c (trail @ [ st ])
    | None -> (s, trail)
  in
  go scenario []

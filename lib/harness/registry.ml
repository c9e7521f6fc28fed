let all =
  [
    E1.experiment;
    E10.experiment;
    E2.experiment;
    E3.experiment;
    E4.experiment;
    E5.experiment;
    E6.experiment;
    E7.experiment;
    E8.experiment;
    E9.experiment;
  ]

let find id =
  let id = String.uppercase_ascii id in
  List.find_opt (fun (e : Exp.t) -> String.uppercase_ascii e.id = id) all

let run_one (e : Exp.t) =
  Printf.printf "\n=== %s: %s ===\nClaim: %s\n\n" e.id e.title e.claim;
  e.run ()

let run_ids ids =
  List.filter
    (fun id ->
      match find id with
      | Some e ->
        run_one e;
        false
      | None -> true)
    ids

let run_all () = List.iter run_one all

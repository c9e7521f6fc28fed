module Plan = Threads_fault.Plan

type file = {
  backend : string;
  scenario : Oracle.scenario;
  expect : Oracle.kind option;
}

let magic = "taos-gen 1"

let to_string f =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let p = f.scenario.Oracle.program in
  line "%s" magic;
  line "backend %s" f.backend;
  line "policy %s" (Generate.policy_name f.scenario.Oracle.policy);
  line "seed %d" f.scenario.Oracle.seed;
  (match f.expect with
  | Some k -> line "expect %s" (Oracle.kind_name k)
  | None -> ());
  (match f.scenario.Oracle.plan with
  | None -> ()
  | Some plan ->
    line "plan-id %d" plan.Plan.id;
    List.iter
      (fun a -> line "plan-action %s" (Plan.encode_action a))
      plan.Plan.actions);
  line "mutexes %d" p.Prog.mutexes;
  line "sems %d" p.Prog.sems;
  line "flags %d" p.Prog.flags;
  line "tokens %d" p.Prog.tokens;
  line "irqs %d" p.Prog.irqs;
  List.iter
    (fun ops ->
      line "worker%s"
        (match ops with
        | [] -> ""
        | _ -> " " ^ String.concat "; " (List.map Prog.encode_op ops)))
    p.Prog.threads;
  line "main%s"
    (match p.Prog.main with
    | [] -> ""
    | ops -> " " ^ String.concat "; " (List.map Prog.encode_op ops));
  line "end";
  Buffer.contents b

let print ppf f = Format.pp_print_string ppf (to_string f)

(* ---- parsing ---- *)

let parse text =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && not (String.length l > 0 && l.[0] = '#'))
  in
  match lines with
  | m :: rest when m = magic -> (
    let backend = ref None
    and policy = ref Generate.Safe
    and seed = ref None
    and expect = ref None
    and plan_id = ref None
    and plan_actions = ref []
    and mutexes = ref 0
    and sems = ref 0
    and flags = ref 0
    and tokens = ref 0
    and irqs = ref 0
    and threads = ref []
    and main = ref [] in
    let parse_ops s =
      if String.trim s = "" then Ok []
      else
        let parts =
          String.split_on_char ';' s |> List.map String.trim
          |> List.filter (fun x -> x <> "")
        in
        let ops = List.map Prog.decode_op parts in
        if List.for_all Option.is_some ops then Ok (List.map Option.get ops)
        else Error s
    in
    let bad = ref None in
    let fail l = if !bad = None then bad := Some l in
    let int_field r v l =
      match int_of_string_opt (String.trim v) with
      | Some n -> r := n
      | None -> fail l
    in
    List.iter
      (fun l ->
        if l <> "end" then
          let key, rest =
            match String.index_opt l ' ' with
            | Some i ->
              ( String.sub l 0 i,
                String.sub l (i + 1) (String.length l - i - 1) )
            | None -> (l, "")
          in
          match key with
          | "backend" -> backend := Some (String.trim rest)
          | "policy" -> (
            match Generate.policy_of_string (String.trim rest) with
            | Some p -> policy := p
            | None -> fail l)
          | "seed" -> (
            match int_of_string_opt (String.trim rest) with
            | Some n -> seed := Some n
            | None -> fail l)
          | "expect" -> (
            match Oracle.kind_of_string rest with
            | Some k -> expect := Some k
            | None -> fail l)
          | "plan-id" -> (
            match int_of_string_opt (String.trim rest) with
            | Some n -> plan_id := Some n
            | None -> fail l)
          | "plan-action" -> (
            match Plan.decode_action rest with
            | Some a -> plan_actions := !plan_actions @ [ a ]
            | None -> fail l)
          | "mutexes" -> int_field mutexes rest l
          | "sems" -> int_field sems rest l
          | "flags" -> int_field flags rest l
          | "tokens" -> int_field tokens rest l
          | "irqs" -> int_field irqs rest l
          | "worker" -> (
            match parse_ops rest with
            | Ok ops -> threads := !threads @ [ ops ]
            | Error _ -> fail l)
          | "main" -> (
            match parse_ops rest with
            | Ok ops -> main := ops
            | Error _ -> fail l)
          | _ -> fail l)
      rest;
    match (!bad, !backend, !seed) with
    | Some l, _, _ -> err "unparseable line: %s" l
    | None, None, _ -> err "missing 'backend' line"
    | None, _, None -> err "missing 'seed' line"
    | None, Some backend, Some seed ->
      let plan =
        match (!plan_id, !plan_actions) with
        | None, [] -> None
        | id, actions ->
          Some { Plan.id = Option.value id ~default:0; actions }
      in
      let program =
        {
          Prog.mutexes = !mutexes;
          sems = !sems;
          flags = !flags;
          tokens = !tokens;
          irqs = !irqs;
          threads = !threads;
          main = !main;
        }
      in
      Ok
        {
          backend;
          scenario =
            { Oracle.program; policy = !policy; seed; plan };
          expect = !expect;
        })
  | l :: _ -> err "bad magic: expected %S, got %S" magic l
  | [] -> err "empty replay file"

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error msg -> Error msg

type result = {
  name : string;
  ns_per_run : float;
  r_square : float option;
}

type results = {
  clock : string;
  quick : bool;
  results : result list;
}

let schema = "dsas-bench/1"

let to_json r =
  let result_obj (res : result) =
    Json.Raw
      (Json.obj
         (("name", Json.String res.name)
          :: ("ns_per_run", Json.Float res.ns_per_run)
          ::
          (match res.r_square with
           | Some r2 -> [ ("r_square", Json.Float r2) ]
           | None -> [])))
  in
  Json.obj
    [
      ("schema", Json.String schema);
      ("clock", Json.String r.clock);
      ("quick", Json.Raw (if r.quick then "true" else "false"));
      ("results", Json.Raw (Json.array (List.map result_obj r.results)));
    ]

let load filename =
  match File.read filename with
  | Error msg -> Error msg
  | Ok text ->
    (match Json.parse_tree text with
     | None -> Error (Printf.sprintf "%s: malformed JSON" filename)
     | Some doc ->
       (match Json.tree_str doc "schema" with
        | Some s when s = schema ->
          let results =
            match Json.tree_mem doc "results" with
            | Some (Json.TArr items) ->
              List.filter_map
                (fun item ->
                  match (Json.tree_str item "name", Json.tree_num item "ns_per_run") with
                  | Some name, Some ns_per_run ->
                    Some { name; ns_per_run; r_square = Json.tree_num item "r_square" }
                  | _ -> None)
                items
            | _ -> []
          in
          let clock =
            match Json.tree_str doc "clock" with Some c -> c | None -> "unknown"
          in
          let quick =
            match Json.tree_mem doc "quick" with
            | Some (Json.TBool b) -> b
            | _ -> false
          in
          Ok { clock; quick; results }
        | Some other ->
          Error (Printf.sprintf "%s: schema %S, expected %S" filename other schema)
        | None -> Error (Printf.sprintf "%s: missing \"schema\" field" filename)))

type verdict = {
  v_name : string;
  old_ns : float;
  new_ns : float;
  delta_pct : float;
  regressed : bool;
}

type comparison = {
  threshold_pct : float;
  verdicts : verdict list;
  only_old : string list;
  only_new : string list;
}

let compare_results ~threshold_pct ~old_r ~new_r =
  let by_name rs =
    List.sort (fun (a : result) b -> compare a.name b.name) rs.results
  in
  let olds = by_name old_r and news = by_name new_r in
  let rec merge olds news verdicts only_old only_new =
    match (olds, news) with
    | [], [] -> (List.rev verdicts, List.rev only_old, List.rev only_new)
    | o :: os, [] -> merge os [] verdicts (o.name :: only_old) only_new
    | [], n :: ns -> merge [] ns verdicts only_old (n.name :: only_new)
    | o :: os, n :: ns ->
      if o.name = n.name then begin
        let delta_pct =
          if o.ns_per_run <= 0. then 0.
          else ((n.ns_per_run /. o.ns_per_run) -. 1.) *. 100.
        in
        let v =
          {
            v_name = o.name;
            old_ns = o.ns_per_run;
            new_ns = n.ns_per_run;
            delta_pct;
            regressed = delta_pct > threshold_pct;
          }
        in
        merge os ns (v :: verdicts) only_old only_new
      end
      else if o.name < n.name then merge os news verdicts (o.name :: only_old) only_new
      else merge olds ns verdicts only_old (n.name :: only_new)
  in
  let verdicts, only_old, only_new = merge olds news [] [] [] in
  { threshold_pct; verdicts; only_old; only_new }

let regressions c =
  List.sort
    (fun a b -> compare b.delta_pct a.delta_pct)
    (List.filter (fun v -> v.regressed) c.verdicts)

(* Reports lead with the worst offender: verdicts ordered by delta
   descending (name breaks ties), so regressions top the table and the
   JSON artifact alike. *)
let by_magnitude verdicts =
  List.sort
    (fun a b ->
      match compare b.delta_pct a.delta_pct with
      | 0 -> compare a.v_name b.v_name
      | c -> c)
    verdicts

let print oc c =
  let c = { c with verdicts = by_magnitude c.verdicts } in
  Printf.fprintf oc "%-44s %12s %12s %9s\n" "kernel" "old ns/run" "new ns/run" "delta";
  List.iter
    (fun v ->
      Printf.fprintf oc "%-44s %12.1f %12.1f %+8.1f%%%s\n" v.v_name v.old_ns v.new_ns
        v.delta_pct
        (if v.regressed then "  REGRESSION" else ""))
    c.verdicts;
  List.iter
    (fun name -> Printf.fprintf oc "%-44s (only in baseline)\n" name)
    c.only_old;
  List.iter
    (fun name -> Printf.fprintf oc "%-44s (only in new run)\n" name)
    c.only_new;
  let regs = regressions c in
  if regs = [] then
    Printf.fprintf oc "no regressions above %.1f%% across %d kernel(s)\n"
      c.threshold_pct (List.length c.verdicts)
  else
    Printf.fprintf oc "%d regression(s) above %.1f%%\n" (List.length regs)
      c.threshold_pct

let comparison_to_json c =
  let verdict_obj v =
    Json.Raw
      (Json.obj
         [
           ("name", Json.String v.v_name);
           ("old_ns", Json.Float v.old_ns);
           ("new_ns", Json.Float v.new_ns);
           ("delta_pct", Json.Float v.delta_pct);
           ("regressed", Json.Raw (if v.regressed then "true" else "false"));
         ])
  in
  Json.obj
    [
      ("threshold_pct", Json.Float c.threshold_pct);
      ( "verdicts",
        Json.Raw (Json.array (List.map verdict_obj (by_magnitude c.verdicts))) );
      ( "only_old",
        Json.Raw (Json.array (List.map (fun s -> Json.String s) c.only_old)) );
      ( "only_new",
        Json.Raw (Json.array (List.map (fun s -> Json.String s) c.only_new)) );
      ( "regressions",
        Json.Int (List.length (regressions c)) );
    ]

type config = { boundary_dirs : string list }

let default_config = { boundary_dirs = [ "experiments"; "bin"; "test"; "bench" ] }

(* A file under a boundary directory (CLI, experiment drivers, tests) is
   exempt from L4: those modules are where partiality is allowed to
   surface as a crash with a message. *)
let is_boundary config file =
  String.split_on_char '/' file
  |> List.exists (fun part -> List.mem part config.boundary_dirs)

(* --- the AST pass --- *)

let float_ops = [ "+."; "-."; "*."; "/."; "**" ]

let is_float_shaped (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
    (match Longident.flatten txt with
     | [ op ] when List.mem op float_ops -> true
     | [ "float_of_int" ] | [ "Float"; "of_int" ] -> true
     | _ -> false)
  | _ -> false

let is_ignore lid =
  match Longident.flatten lid with
  | [ "ignore" ] | [ "Stdlib"; "ignore" ] -> true
  | _ -> false

(* Only applications: [ignore (f x)] hides what [f] returns, while
   [ignore x] names a value whose binding is in plain sight. *)
let is_application (e : Parsetree.expression) =
  match e.pexp_desc with Pexp_apply _ -> true | _ -> false

let is_equality lid =
  match Longident.flatten lid with
  | [ ("=" | "<>" | "==" | "!=") ] | [ "Stdlib"; ("=" | "<>" | "==" | "!=") ] -> true
  | _ -> false

let check_ident add txt (loc : Location.t) =
  match Longident.flatten txt with
  | "Random" :: f :: _ when f <> "State" ->
    add Rule.L1 loc
      (Printf.sprintf
         "Random.%s uses the shared global PRNG: thread a seeded Sim.Rng or \
          Random.State through the engine instead" f)
  | [ "Unix"; (("gettimeofday" | "time") as f) ] ->
    add Rule.L1 loc
      (Printf.sprintf "Unix.%s reads the wall clock; use the simulated Sim.Clock" f)
  | [ "Sys"; "time" ] ->
    add Rule.L1 loc "Sys.time reads the process clock; use the simulated Sim.Clock"
  | [ "Obj"; "magic" ] -> add Rule.L2 loc "Obj.magic defeats the type checker"
  | [ "Hashtbl"; (("iter" | "fold") as f) ] ->
    add Rule.L3 loc
      (Printf.sprintf
         "Hashtbl.%s visits bindings in hash order: sort the keys first, or \
          pragma-allow with the reason the result is order-independent" f)
  | [ "failwith" ] | [ "Stdlib"; "failwith" ] ->
    add Rule.L4 loc
      "bare failwith raises untyped Failure from library code: return a typed \
       result or raise a documented exception"
  | [ "List"; (("hd" | "tl") as f) ] ->
    add Rule.L4 loc
      (Printf.sprintf "List.%s is partial: match on the list shape instead" f)
  | [ "Option"; "get" ] ->
    add Rule.L4 loc "Option.get is partial: match on the option instead"
  | _ -> ()

let collect_violations structure =
  let found = ref [] in
  let add rule (loc : Location.t) message =
    found :=
      ( rule,
        loc.loc_start.Lexing.pos_lnum,
        loc.loc_start.Lexing.pos_cnum - loc.loc_start.Lexing.pos_bol,
        message )
      :: !found
  in
  let expr (self : Ast_iterator.iterator) (e : Parsetree.expression) =
    (match e.pexp_desc with
     | Pexp_ident { txt; loc } -> check_ident add txt loc
     | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, [ (_, a); (_, b) ])
       when is_equality txt && (is_float_shaped a || is_float_shaped b) ->
       add Rule.L5 e.pexp_loc
         "float equality comparison: representation noise makes exact \
          comparison fragile; compare with a tolerance"
     | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, [ (_, arg) ])
       when is_ignore txt && is_application arg ->
       add Rule.L6 e.pexp_loc
         "ignore of a function application hides the discarded type (a \
          result carrying a typed failure would vanish): discard with a \
          type ascription (let (_ : t) = ...) or handle the value"
     | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let iterator = { Ast_iterator.default_iterator with expr } in
  iterator.structure iterator structure;
  List.rev !found

(* --- parsing --- *)

let parse_structure ~file source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  match Parse.implementation lexbuf with
  | structure -> Ok structure
  | exception Syntaxerr.Error err ->
    let loc = Syntaxerr.location_of_error err in
    Error
      ( loc.loc_start.Lexing.pos_lnum,
        loc.loc_start.Lexing.pos_cnum - loc.loc_start.Lexing.pos_bol,
        "syntax error" )
  | exception Lexer.Error (_, loc) ->
    Error
      ( loc.loc_start.Lexing.pos_lnum,
        loc.loc_start.Lexing.pos_cnum - loc.loc_start.Lexing.pos_bol,
        "lexer error" )
  | exception _ -> Error (1, 0, "does not parse")

(* --- pragma application --- *)

let lint_source ?(config = default_config) ~file source =
  match parse_structure ~file source with
  | Error (line, col, message) ->
    [ { Diagnostic.file; line; col; code = Diagnostic.Parse_error; message } ]
  | Ok structure ->
    let scan = Pragma.scan source in
    let boundary = is_boundary config file in
    let violations =
      collect_violations structure
      |> List.filter (fun (rule, _, _, _) ->
             not (boundary && (rule = Rule.L4 || rule = Rule.L6)))
    in
    let used = Hashtbl.create 8 in
    let suppressed (rule, line, _, _) =
      let matching (p : Pragma.t) =
        p.rule = rule
        && (match p.scope with
            | Pragma.File -> true
            | Pragma.Line -> p.line = line || p.line = line - 1)
      in
      match List.find_opt matching scan.pragmas with
      | Some p ->
        Hashtbl.replace used (p.line, p.rule) ();
        true
      | None -> false
    in
    let live = List.filter (fun v -> not (suppressed v)) violations in
    let diagnostics =
      List.map
        (fun (rule, line, col, message) ->
          { Diagnostic.file; line; col; code = Diagnostic.Rule rule; message })
        live
    in
    let pragma_problems =
      List.map
        (fun (line, message) ->
          { Diagnostic.file; line; col = 0; code = Diagnostic.Bad_pragma; message })
        scan.malformed
      @ List.filter_map
          (fun (p : Pragma.t) ->
            if Hashtbl.mem used (p.line, p.rule) then None
            else
              Some
                {
                  Diagnostic.file;
                  line = p.line;
                  col = 0;
                  code = Diagnostic.Bad_pragma;
                  message =
                    Printf.sprintf
                      "allow %s pragma suppresses nothing: remove it (stale \
                       allowlists hide future violations)"
                      (Rule.id p.rule);
                })
          scan.pragmas
    in
    List.sort Diagnostic.compare (diagnostics @ pragma_problems)

let lint_file ?config path =
  match Obs.File.read path with
  | Error msg ->
    [ { Diagnostic.file = path; line = 1; col = 0; code = Diagnostic.Parse_error;
        message = msg } ]
  | Ok source -> lint_source ?config ~file:path source

let rec walk path acc =
  match Sys.is_directory path with
  | exception Sys_error _ -> acc (* broken symlink, permission — not ours *)
  | true ->
    (match Sys.readdir path with
     | exception Sys_error _ -> acc
     | entries ->
       Array.to_list entries |> List.sort compare
       |> List.fold_left
            (fun acc name ->
              (* _build, .git and friends are not source. *)
              if name = "" || name.[0] = '.' || name.[0] = '_' then acc
              else walk (Filename.concat path name) acc)
            acc)
  | false -> if Filename.check_suffix path ".ml" then path :: acc else acc

let ml_files_under path = List.sort compare (walk path [])

let lint_paths ?config paths =
  let files = List.concat_map ml_files_under paths in
  (files, List.concat_map (fun f -> lint_file ?config f) files)

(* Tests of the built executables: every subcommand's help renders
   without cmdliner markup errors, `replay` reports a malformed trace
   file as one line on stderr with a non-zero exit, and `run --quick
   all` and the fixed-seed `chaos` runs print exactly the committed
   reports and traces. *)

let dsas_sim = "../../bin/dsas_sim.exe"

let read file = In_channel.with_open_bin file In_channel.input_all

(* Run [exe args]; (exit code, stdout, stderr). *)
let run exe args =
  let out = Filename.temp_file "dsas_cli" ".out" and err = Filename.temp_file "dsas_cli" ".err" in
  let code = Sys.command (Filename.quote_command exe args ~stdout:out ~stderr:err) in
  let stdout = read out and stderr = read err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* The command names listed in the COMMANDS section of plain help:
   lines indented by exactly seven spaces. *)
let commands_of_help help =
  let rec scan in_section acc = function
    | [] -> List.rev acc
    | line :: rest ->
      if line = "COMMANDS" then scan true acc rest
      else if line <> "" && line.[0] <> ' ' then scan false acc rest
      else if
        in_section && String.length line > 7
        && String.sub line 0 7 = "       "
        && line.[7] <> ' '
      then
        let name = List.hd (String.split_on_char ' ' (String.sub line 7 (String.length line - 7))) in
        scan in_section (name :: acc) rest
      else scan in_section acc rest
  in
  scan false [] (String.split_on_char '\n' help)

(* Every command path reachable from [path], depth first. *)
let rec command_paths exe path =
  let _, help, _ = run exe (path @ [ "--help=plain" ]) in
  path :: List.concat_map (fun c -> command_paths exe (path @ [ c ])) (commands_of_help help)

let test_help_clean exe ~expect () =
  let paths = command_paths exe [] in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "discovered %s" (String.concat " " p))
        true (List.mem p paths))
    expect;
  List.iter
    (fun path ->
      let label = String.concat " " (Filename.basename exe :: path) in
      let code, stdout, stderr = run exe (path @ [ "--help=plain" ]) in
      Alcotest.(check int) (label ^ " exits 0") 0 code;
      Alcotest.(check bool) (label ^ " has no cmdliner error") false
        (contains (stdout ^ stderr) "cmdliner error"))
    paths

let with_trace contents f =
  let file = Filename.temp_file "dsas_cli" ".trace" in
  Out_channel.with_open_bin file (fun oc -> output_string oc contents);
  Fun.protect ~finally:(fun () -> Sys.remove file) (fun () -> f file)

let rejected contents () =
  with_trace contents (fun file ->
      let code, stdout, stderr = run dsas_sim [ "replay"; "-t"; file; "--frames"; "3" ] in
      Alcotest.(check bool) "non-zero exit" true (code <> 0);
      Alcotest.(check bool) "not an uncaught exception" true (code <> 125);
      Alcotest.(check string) "nothing on stdout" "" stdout;
      Alcotest.(check int) "one line on stderr" 1
        (List.length (String.split_on_char '\n' (String.trim stderr)));
      Alcotest.(check bool) "names the file and line" true
        (contains stderr file && contains stderr "line 3"))

let test_replay_valid () =
  with_trace "# five refs\n3\n1\n4\n1\n5\n" (fun file ->
      let code, stdout, _ = run dsas_sim [ "replay"; "-t"; file; "--frames"; "3" ] in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check string) "summary"
        "LRU over 5 refs with 3 frames: 4 faults (80.00%), 4 cold, 1 evictions\n" stdout)

(* First differing line of [actual] against the committed fixture. *)
let same_as_fixture fixture actual =
  let lines s = String.split_on_char '\n' s in
  let rec first_diff n = function
    | e :: es, a :: as_ -> if e = a then first_diff (n + 1) (es, as_) else Some (n, e, a)
    | [], [] -> None
    | e :: _, [] -> Some (n, e, "<end of output>")
    | [], a :: _ -> Some (n, "<end of fixture>", a)
  in
  match first_diff 1 (lines (read ("../fixtures/" ^ fixture)), lines actual) with
  | None -> ()
  | Some (n, expected, actual) ->
    Alcotest.failf "line %d differs from fixtures/%s:\n  expected: %s\n  actual:   %s" n
      fixture expected actual

(* The fixtures below are the outputs before any refactoring, so a
   change that alters a report fails here.  They are never regenerated
   to pass. *)
let stdout_unchanged args fixture () =
  let code, stdout, _ = run dsas_sim args in
  Alcotest.(check int) "exit 0" 0 code;
  same_as_fixture fixture stdout

let trace_unchanged args fixture () =
  let file = Filename.temp_file "dsas_cli" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let code, _, _ = run dsas_sim (args @ [ "--trace"; file ]) in
      Alcotest.(check int) "exit 0" 0 code;
      same_as_fixture fixture (read file))

let chaos = [ "chaos"; "--quick"; "--seed"; "0xC7A05" ]

let () =
  Alcotest.run "cli"
    [
      ( "help",
        [
          Alcotest.test_case "dsas_sim subcommands" `Quick
            (test_help_clean dsas_sim
               ~expect:[ []; [ "run" ]; [ "replay" ]; [ "campaign" ]; [ "campaign"; "report" ] ]);
          Alcotest.test_case "tracegen subcommands" `Quick
            (test_help_clean "../../bin/tracegen.exe" ~expect:[ []; [ "ref" ] ]);
          Alcotest.test_case "dsas_lint" `Quick
            (test_help_clean "../../bin/dsas_lint.exe" ~expect:[ [] ]);
        ] );
      ( "replay",
        [
          Alcotest.test_case "negative address" `Quick (rejected "3\n1\n-4\n");
          Alcotest.test_case "garbage line" `Quick (rejected "3\n1\nfour\n");
          Alcotest.test_case "valid file" `Quick test_replay_valid;
        ] );
      ( "run",
        [
          Alcotest.test_case "quick all unchanged" `Quick
            (stdout_unchanged [ "run"; "--quick"; "all" ] "quick_all.txt");
        ] );
      ( "chaos",
        [
          Alcotest.test_case "text unchanged" `Quick
            (stdout_unchanged (chaos @ [ "--runs"; "8" ]) "chaos_quick8.txt");
          Alcotest.test_case "json unchanged" `Quick
            (stdout_unchanged (chaos @ [ "--runs"; "8"; "--json" ]) "chaos_quick8.json");
          Alcotest.test_case "multicore json unchanged" `Quick
            (stdout_unchanged
               (chaos @ [ "--domains"; "1"; "--runs"; "4"; "--json" ])
               "par_chaos_quick4.json");
          Alcotest.test_case "device trace unchanged" `Quick
            (trace_unchanged (chaos @ [ "--runs"; "4" ]) "chaos_quick4_trace.jsonl");
        ] );
    ]

type segment = { config : string; events : Obs.Event.t list }

type 'fault scenario = {
  name : string;
  run : seed:int -> fault:'fault -> (string * int) list * segment list;
}

type 'fault run_result = {
  scenario : string;
  index : int;
  fault : 'fault;
  counters : (string * int) list;
  events : int;
  check : Obs.Check.report;
}

type 'fault summary = {
  runs : 'fault run_result list;
  seed : int;
  scenarios : int;
  total_events : int;
  violations : int;
  totals : (string * int) list;  (* counters summed across runs, first-seen order *)
}

(* One randomized-but-reproducible fault configuration.  Escalation is
   always [Fail]: chaos exists to exercise the recovery paths, and
   [Degrade] never surfaces a failure.  Every draw comes from the
   caller's rng, so a fixed chaos seed fixes the whole schedule. *)
let schedule rng =
  let read_error_prob = 0.05 +. Sim.Rng.float rng 0.4 in
  let write_error_prob = if Sim.Rng.bool rng then Sim.Rng.float rng 0.25 else 0. in
  let permanent_prob = Sim.Rng.float rng 0.3 in
  let max_retries = Sim.Rng.int rng 4 in
  Device.Fault.config
    ~seed:(Sim.Rng.int rng 0x3FFFFFFF)
    ~max_retries ~write_error_prob ~permanent_prob ~on_exhausted:Device.Fault.Fail
    ~read_error_prob ()

let device ~name run =
  {
    name;
    run =
      (fun ~seed ~fault ->
        let buffer = ref [] in
        let counters =
          run ~seed ~fault ~obs:(Obs.Sink.collect (fun ev -> buffer := ev :: !buffer))
        in
        (counters, [ { config = "chaos scenario=" ^ name; events = List.rev !buffer } ]));
  }

let add_counters totals counters =
  List.fold_left
    (fun totals (k, v) ->
      match List.assoc_opt k totals with
      | Some _ -> List.map (fun (k', v') -> if k' = k then (k', v' + v) else (k', v')) totals
      | None -> totals @ [ (k, v) ])
    totals counters

let run ?(trace = Obs.Sink.null) ?progress ?(count_boundaries = false) ~draw
    ~scenarios ~runs ~seed () =
  assert (runs >= 1 && scenarios <> []);
  let rng = Sim.Rng.create seed in
  let n = List.length scenarios in
  let results = ref [] in
  let offset = ref 0 in
  let next_run = ref 0 in
  (* Splice one segment at the current offset: its run_start boundary
     and its events, shifted; the next segment starts one microsecond
     past the latest stamp. *)
  let splice ~seed (seg : segment) =
    let buffer = ref [] in
    let s =
      Obs.Sink.segment ~seed ~config:seg.config ~run:!next_run ~offset:!offset
        (Obs.Sink.collect (fun ev -> buffer := ev :: !buffer))
    in
    List.iter (Obs.Sink.emit s) seg.events;
    incr next_run;
    let spliced = List.rev !buffer in
    offset :=
      List.fold_left (fun acc (ev : Obs.Event.t) -> max acc ev.t_us) !offset spliced + 1;
    spliced
  in
  for index = 0 to runs - 1 do
    let scenario = List.nth scenarios (index mod n) in
    let fault = draw rng in
    let run_seed = Sim.Rng.int rng 0x3FFFFFFF in
    let counters, segments = scenario.run ~seed:run_seed ~fault in
    let spliced = List.concat_map (splice ~seed:run_seed) segments in
    List.iter (Obs.Sink.emit trace) spliced;
    let events =
      List.length spliced - if count_boundaries then 0 else List.length segments
    in
    results :=
      {
        scenario = scenario.name;
        index;
        fault;
        counters;
        events;
        check = Obs.Check.check_events spliced;
      }
      :: !results;
    (match progress with Some f -> f index | None -> ())
  done;
  let runs = List.rev !results in
  let violation_count (r : Obs.Check.report) =
    List.fold_left (fun acc (_, n) -> acc + n) 0 r.counts
  in
  {
    runs;
    seed;
    scenarios = n;
    total_events = List.fold_left (fun acc r -> acc + r.events) 0 runs;
    violations = List.fold_left (fun acc r -> acc + violation_count r.check) 0 runs;
    totals = List.fold_left (fun acc r -> add_counters acc r.counters) [] runs;
  }

let ok s = s.violations = 0

let counter s name = match List.assoc_opt name s.totals with Some n -> n | None -> 0

let report ?domains ~json s =
  let runs = List.length s.runs in
  let mode = match domains with Some _ -> "multicore chaos" | None -> "chaos" in
  if json then begin
    let pair (k, v) = Printf.sprintf "%S:%d" k v in
    Printf.printf
      "{\"runs\":%d,\"seed\":%d,%s\"events\":%d,\"violations\":%d,\"totals\":{%s}}\n"
      runs s.seed
      (match domains with Some d -> Printf.sprintf "\"domains\":%d," d | None -> "")
      s.total_events s.violations
      (String.concat "," (List.map pair s.totals))
  end
  else begin
    Printf.printf "%s: %d runs over %d scenarios, seed %d%s\n" mode runs s.scenarios
      s.seed
      (match domains with Some d -> Printf.sprintf ", domains %d" d | None -> "");
    Printf.printf "events: %d, invariant violations: %d\n" s.total_events s.violations;
    print_endline
      (match domains with Some _ -> "supervision totals:" | None -> "recovery totals:");
    List.iter (fun (k, v) -> Printf.printf "  %-20s %d\n" k v) s.totals
  end;
  let violated = List.filter (fun r -> not (Obs.Check.ok r.check)) s.runs in
  List.iter
    (fun r ->
      Printf.printf "run %d (%s): INVARIANT VIOLATIONS\n" r.index r.scenario;
      Obs.Check.print r.check)
    violated;
  if violated <> [] then
    Error
      (Printf.sprintf "%d of %d %s runs violated trace invariants (seed %d)"
         (List.length violated) runs mode s.seed)
  else if counter s "diverged" > 0 then
    Error
      (Printf.sprintf "%d %s run(s) DIVERGED from the fault-free reference (seed %d)"
         (counter s "diverged") mode s.seed)
  else if counter s "escalated" > 0 then
    Error
      (Printf.sprintf "%d %s run(s) escalated past the restart budget (seed %d)"
         (counter s "escalated") mode s.seed)
  else Ok ()

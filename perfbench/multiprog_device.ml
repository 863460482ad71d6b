(* Workload multiprog_device: c7/x8_devices' timed path.
   Workload.Job.mix job sets run by Dsas.Multiprog.run over a fresh
   Device.Model per cell, across geometry (fixed / drum / disk) x
   scheduler (fifo / satf / priority) x 1-2 channels, with an LRU shared
   pool.  Events go to an active JSONL-encoding Obs sink, as
   `dsas_sim run --trace` would produce them, but kept in memory.  The
   mix fits its frames (8 jobs x 24 pages over 160 frames), so the
   paging does not thrash and the device queue, not the pool, decides
   utilization. *)

open Common

let name = "multiprog_device"

let geometries =
  [
    ("fixed", Device.Geometry.fixed_us 5_000);
    ("drum", Device.Geometry.atlas_drum);
    ("disk", Device.Geometry.paper_disk);
  ]

let scheds = Device.Sched.all

let channel_counts = [ 1; 2 ]

let jobs = 8

let pages_per_job = 24

let frames = 160

let refs_per_job = function Full -> 1_500 | Tiny -> 200

let reps = function Full -> 6 | Tiny -> 1

(* The sink: every event is encoded to its JSONL line, exactly the work
   of Obs.Sink.jsonl short of the channel write, into a buffer reused
   across cells. *)
let lines = Buffer.create (1 lsl 20)

let events = ref 0

let encode ev =
  Buffer.add_string lines (Obs.Event.to_json ev);
  Buffer.add_char lines '\n';
  incr events

(* --- per-layer accumulators (traced executions) --- *)

let config_keys =
  List.concat_map
    (fun (g, _) -> List.map (fun s -> (g, Device.Sched.name s)) scheds)
    geometries

let config_ns = Hashtbl.create 16

let config_refs = Hashtbl.create 16

let bump tbl k v = Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let sink_ns = ref 0 (* runs with the JSONL sink *)

let null_ns = ref 0 (* the same runs with the null sink *)

let sink_events = ref 0

let sink_bytes = ref 0

let refs = ref 0

let prof_refs = ref 0 (* both runs: Obs.Prof saw both *)

let prof_faults = ref 0

let prof_requests = ref 0

let util_sum = ref 0.

let depth_sum = ref 0.

let depth_max = ref 0

let runs = ref 0

let gen_ns = ref 0

let gen_refs = ref 0

let run ~sink ~geometry ~sched ~channels mix =
  let model =
    Spans.span "device.model.create" (fun () ->
        Device.Model.create ~obs:sink (Device.Model.config ~sched ~channels geometry))
  in
  let policy = Spans.span "paging.replacement.lru" Paging.Replacement.lru in
  let report =
    Spans.span "dsas.multiprog.run" (fun () ->
        Dsas.Multiprog.run ~obs:sink ~device:model ~frames ~policy ~fetch_us:5_000 mix)
  in
  (model, report)

let cell ~seed ~rep ~mix ~device ~geometry ~sched ~channels =
  let id = Printf.sprintf "%s/%s/%dch/r%d" device (Device.Sched.name sched) channels rep in
  let n = List.fold_left (fun acc j -> acc + Array.length j.Workload.Job.refs) 0 mix in
  let exec ~gc =
    Buffer.clear lines;
    events := 0;
    let (model, report), ns, words =
      engine ~gc (fun () ->
          Spans.cell id (fun () ->
              let sink =
                Obs.Sink.segment ~seed ~config:("perfbench " ^ id) ~run:0 ~offset:0
                  (Obs.Sink.collect encode)
              in
              let r = run ~sink ~geometry ~sched ~channels mix in
              if !Spans.on then begin
                let k = (device, Device.Sched.name sched) in
                bump config_ns k (Spans.last_ns ());
                bump config_refs k n;
                sink_ns := !sink_ns + Spans.last_ns ()
              end;
              r))
    in
    let stats = Device.Model.stats model in
    let { Dsas.Multiprog.elapsed_us; cpu_busy_us; cpu_utilization; total_faults; _ } =
      report
    in
    let traced = !Spans.on in
    if traced then begin
      (* obs.sink.ns_per_event: the same cell again with the null sink *)
      let _, null_report =
        Spans.cell (id ^ "/null_sink") (fun () ->
            let r = run ~sink:Obs.Sink.null ~geometry ~sched ~channels mix in
            null_ns := !null_ns + Spans.last_ns ();
            r)
      in
      sink_events := !sink_events + !events;
      sink_bytes := !sink_bytes + Buffer.length lines;
      refs := !refs + n;
      prof_refs := !prof_refs + (2 * n);
      prof_faults := !prof_faults + total_faults + null_report.Dsas.Multiprog.total_faults;
      prof_requests := !prof_requests + (2 * stats.Device.Model.served);
      util_sum := !util_sum +. cpu_utilization;
      depth_sum := !depth_sum +. stats.Device.Model.mean_queue_depth;
      depth_max := max !depth_max stats.Device.Model.max_queue_depth;
      incr runs
    end;
    let job_faults =
      List.fold_left (fun acc j -> acc + j.Dsas.Multiprog.faults) 0 report.Dsas.Multiprog.jobs
    in
    let check_stream () =
      let report =
        Obs.Check.check_lines
          (List.filter (( <> ) "") (String.split_on_char '\n' (Buffer.contents lines)))
      in
      if Obs.Check.ok report then []
      else [ "recorded event stream fails Obs.Check: " ^ Obs.Check.to_json report ]
    in
    let errors =
      List.filter_map
        (fun (ok, msg) -> if ok then None else Some msg)
        [
          ( report.Dsas.Multiprog.jobs_failed = 0
            && List.for_all (fun j -> j.Dsas.Multiprog.completed) report.Dsas.Multiprog.jobs,
            "not every job completed" );
          ( total_faults = job_faults,
            Printf.sprintf "total_faults %d <> sum of job faults %d" total_faults job_faults );
          ( List.length report.Dsas.Multiprog.jobs = List.length mix
            && List.for_all2
                 (fun j spec -> j.Dsas.Multiprog.refs = Array.length spec.Workload.Job.refs)
                 report.Dsas.Multiprog.jobs mix,
            "a job did not execute its whole reference string" );
        ]
      @ if traced || gc then check_stream () else []
    in
    let stats =
      Printf.sprintf
        "elapsed=%d busy=%d util=%h faults=%d restarts=%d jobs=%s served=%d reads=%d \
         latency=%h depth=%h/%d device_busy=%d"
        elapsed_us cpu_busy_us cpu_utilization total_faults report.Dsas.Multiprog.restarts
        (String.concat ","
           (List.map
              (fun j ->
                Printf.sprintf "%s:%d:%d" j.Dsas.Multiprog.job j.Dsas.Multiprog.faults
                  j.Dsas.Multiprog.finish_us)
              report.Dsas.Multiprog.jobs))
        stats.Device.Model.served stats.Device.Model.read_served
        stats.Device.Model.mean_read_latency_us stats.Device.Model.mean_queue_depth
        stats.Device.Model.max_queue_depth stats.Device.Model.busy_us
    in
    { ops = n; ns; gc_words = words; stats; errors; oracle = no_oracle }
  in
  { id; exec }

let setup ~size ~seed =
  let mixes =
    List.init (reps size) (fun rep ->
        let rng = Sim.Rng.derive ~override:seed (4242 + (rep * 7919)) in
        let mix =
          Spans.span "workload.job.gen" (fun () ->
              Workload.Job.mix rng ~jobs ~refs_per_job:(refs_per_job size) ~pages_per_job
                ~locality:0.9 ~compute_us_per_ref:100)
        in
        if !Spans.on then begin
          gen_ns := !gen_ns + Spans.last_ns ();
          gen_refs := !gen_refs + (jobs * refs_per_job size)
        end;
        (rep, mix))
  in
  List.concat_map
    (fun (rep, mix) ->
      List.concat_map
        (fun (device, geometry) ->
          List.concat_map
            (fun sched ->
              List.map
                (fun channels -> cell ~seed ~rep ~mix ~device ~geometry ~sched ~channels)
                channel_counts)
            scheds)
        geometries)
    mixes
  |> Array.of_list

(* Summed (self, total) ns of every Obs.Prof path whose last span is
   [name]: the in-library spans, attributed wherever they nest. *)
let prof_ns name =
  List.fold_left
    (fun (self, total) (r : Obs.Prof.row) ->
      let path = String.split_on_char ';' r.Obs.Prof.path in
      if List.nth path (List.length path - 1) = name then
        (self + r.Obs.Prof.self_ns, total + r.Obs.Prof.total_ns)
      else (self, total))
    (0, 0) (Obs.Prof.rows ())

let layer_metrics () =
  let f = float_of_int in
  let execute_self, _ = prof_ns "multiprog.execute" in
  let victim_self, _ = prof_ns "multiprog.victim" in
  let _, dispatch_total = prof_ns "device.dispatch" in
  [ ("workload.job.gen_ns_per_ref", ratio (f !gen_ns) (f !gen_refs), "ns/ref") ]
  @ List.map
      (fun ((g, s) as k) ->
        let get tbl = f (Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
        ( Printf.sprintf "dsas.multiprog.%s.%s.ns_per_ref" g s,
          ratio (get config_ns) (get config_refs),
          "ns/ref" ))
      config_keys
  @ [
      ("dsas.multiprog.execute.self_ns_per_ref", ratio (f execute_self) (f !prof_refs), "ns/ref");
      ( "dsas.multiprog.victim.self_ns_per_fault",
        ratio (f victim_self) (f !prof_faults),
        "ns/fault" );
      ( "device.model.dispatch_ns_per_request",
        ratio (f dispatch_total) (f !prof_requests),
        "ns/request" );
      ("device.model.mean_queue_depth", ratio !depth_sum (f !runs), "requests");
      ("device.model.max_queue_depth", f !depth_max, "requests");
      ("dsas.multiprog.cpu_utilization", ratio !util_sum (f !runs), "share");
      ("obs.sink.events_per_op", ratio (f !sink_events) (f !refs), "events/ref");
      ("obs.sink.bytes_per_event", ratio (f !sink_bytes) (f !sink_events), "B/event");
      ( "obs.sink.ns_per_event",
        ratio (f (!sink_ns - !null_ns)) (f !sink_events),
        "ns/event" );
    ]

(* The benchmark harness.

   Part 1 regenerates every figure and evaluative claim of the paper at
   full scale — the tables and charts the experiments report (see
   EXPERIMENTS.md for the paper-vs-measured record).

   Part 2 runs one Bechamel micro-benchmark per experiment kernel (at
   reduced scale, so the regression has a fast body to sample) plus a
   set of substrate micro-benchmarks, and prints the OLS estimate per
   run for each.

   Run with:  dune exec bench/main.exe
   Options:   --kernels-only   skip Part 1
              --quick          short sampling quota (CI smoke)
              --json FILE      write results as dsas-bench/1 JSON,
                               diffable with `dsas_sim bench-diff` *)

open Bechamel

(* --- Part 2 machinery --- *)

let experiment_kernels =
  [
    Test.make ~name:"fig1_2/mapping"
      (Staged.stage (fun () -> Experiments.Fig1_2.scattered_fraction ()));
    Test.make ~name:"fig3/space-time"
      (Staged.stage (fun () -> Experiments.Fig3.measure ~quick:true ()));
    Test.make ~name:"fig4/two-level"
      (Staged.stage (fun () -> Experiments.Fig4.measure ~quick:true ()));
    Test.make ~name:"c1/fragmentation"
      (Staged.stage (fun () -> Experiments.C1_fragmentation.measure ~quick:true ()));
    Test.make ~name:"c2/placement"
      (Staged.stage (fun () -> Experiments.C2_placement.measure ~quick:true ()));
    Test.make ~name:"c3/replacement"
      (Staged.stage (fun () -> Experiments.C3_replacement.measure ~quick:true ()));
    Test.make ~name:"c4/predictive"
      (Staged.stage (fun () -> Experiments.C4_predictive.measure ~quick:true ()));
    Test.make ~name:"c5/unit-of-allocation"
      (Staged.stage (fun () -> Experiments.C5_unit.measure ~quick:true ()));
    Test.make ~name:"c6/rice-chain"
      (Staged.stage (fun () -> Experiments.C6_rice.measure ~quick:true ()));
    Test.make ~name:"c7/multiprogramming"
      (Staged.stage (fun () -> Experiments.C7_multiprog.measure ~quick:true ()));
    Test.make ~name:"c8/page-size"
      (Staged.stage (fun () -> Experiments.C8_page_size.measure ~quick:true ()));
    Test.make ~name:"x1/compaction"
      (Staged.stage (fun () -> Experiments.X1_compaction.measure ~quick:true ()));
    Test.make ~name:"x2/hierarchy"
      (Staged.stage (fun () -> Experiments.X2_hierarchy.measure ~quick:true ()));
    Test.make ~name:"x3/overlay"
      (Staged.stage (fun () -> Experiments.X3_overlay.measure ~quick:true ()));
    Test.make ~name:"x4/swapping"
      (Staged.stage (fun () -> Experiments.X4_swapping.measure ~quick:true ()));
    Test.make ~name:"x5/addressing"
      (Staged.stage (fun () -> Experiments.X5_addressing.measure ~quick:true ()));
    Test.make ~name:"x6/allotment"
      (Staged.stage (fun () -> Experiments.X6_allotment.measure ~quick:true ()));
    Test.make ~name:"x7/recommended"
      (Staged.stage (fun () -> Experiments.X7_recommended.measure ~quick:true ()));
    Test.make ~name:"x8/drum"
      (Staged.stage (fun () -> Experiments.X8_drum.measure ~quick:true ()));
    Test.make ~name:"x8d/devices"
      (Staged.stage (fun () -> Experiments.X8_devices.measure_multiprog ~quick:true ()));
    Test.make ~name:"a/survey"
      (Staged.stage (fun () -> Machines.Survey.run ~refs:500 ()));
  ]

(* Substrate micro-benchmarks: the inner loops everything above is made
   of. *)
let substrate_kernels =
  let alloc_free_cycle policy =
    let mem = Memstore.Physical.create ~name:"bench" ~words:65536 in
    let a = Freelist.Allocator.create mem ~base:0 ~len:65536 ~policy in
    (* Pre-populate so searches are non-trivial. *)
    let rng = Sim.Rng.create 5 in
    let live =
      Array.init 200 (fun _ ->
          Option.get (Freelist.Allocator.alloc a (1 + Sim.Rng.int rng 60)))
    in
    List.iteri (fun i addr -> if i mod 2 = 0 then Freelist.Allocator.free a addr)
      (Array.to_list live);
    fun () ->
      match Freelist.Allocator.alloc a 32 with
      | Some addr -> Freelist.Allocator.free a addr
      | None -> ()
  in
  let buddy_cycle =
    let b = Freelist.Buddy.create ~words:65536 in
    fun () ->
      match Freelist.Buddy.alloc b 33 with
      | Some off -> Freelist.Buddy.free b off
      | None -> ()
  in
  let rice_cycle =
    let mem = Memstore.Physical.create ~name:"bench" ~words:65536 in
    let c = Segmentation.Rice_chain.create mem ~base:0 ~len:65536 in
    fun () ->
      match Segmentation.Rice_chain.alloc c ~payload:32 ~codeword:1 with
      | Some off -> Segmentation.Rice_chain.free c off
      | None -> ()
  in
  let fault_sim_ref =
    let trace = Workload.Trace.loop ~length:1000 ~extent:64 ~working_set:40 in
    fun () ->
      ignore (Paging.Fault_sim.run ~frames:32 ~policy:(Paging.Replacement.lru ()) trace)
  in
  (* The tracing-overhead ablation (DESIGN.md): same run, ring sink. *)
  let fault_sim_traced =
    let trace = Workload.Trace.loop ~length:1000 ~extent:64 ~working_set:40 in
    let ring = Obs.Sink.ring ~capacity:1024 in
    fun () ->
      ignore
        (Paging.Fault_sim.run ~obs:ring ~frames:32 ~policy:(Paging.Replacement.lru ())
           trace)
  in
  let tlb_lookup =
    let tlb = Paging.Tlb.create ~capacity:8 Paging.Tlb.Lru_replacement in
    for k = 0 to 7 do
      Paging.Tlb.insert tlb ~key:k ~value:k
    done;
    let i = ref 0 in
    fun () ->
      incr i;
      ignore (Paging.Tlb.lookup tlb (!i land 15))
  in
  let drum_queue =
    (* The lib/device hot path: a burst of scattered-sector requests
       submitted at once, then drained through the SATF pick loop. *)
    let model =
      Device.Model.create
        (Device.Model.config ~sched:Device.Sched.Satf ~channels:1
           Device.Geometry.atlas_drum)
    in
    let page = ref 0 in
    fun () ->
      let ids =
        List.init 8 (fun k ->
            page := (!page + 5) land 255;
            ignore k;
            Device.Model.submit model ~now:0 ~kind:Device.Request.Demand ~page:!page
              ~words:256)
      in
      List.iter (fun id -> ignore (Device.Model.completion_us model id)) ids
  in
  (* The profiler-overhead ablation (DESIGN.md §7): same fault-sim run,
     wrapped in a disabled Obs.Prof span.  The two fault-sim rows should
     be indistinguishable. *)
  let fault_sim_prof_span =
    let trace = Workload.Trace.loop ~length:1000 ~extent:64 ~working_set:40 in
    fun () ->
      Obs.Prof.span "bench" (fun () ->
          ignore
            (Paging.Fault_sim.run ~frames:32 ~policy:(Paging.Replacement.lru ())
               trace))
  in
  let demand_read =
    let clock = Sim.Clock.create () in
    let core = Memstore.Level.make clock Memstore.Device.core ~name:"core" ~words:4096 in
    let backing = Memstore.Level.make clock Memstore.Device.drum ~name:"drum" ~words:65536 in
    let engine =
      Paging.Demand.create
        {
          Paging.Demand.page_size = 512;
          frames = 8;
          pages = 128;
          core;
          backing;
          policy = Paging.Replacement.clock_sweep ();
          tlb = Some (Paging.Tlb.create ~capacity:8 Paging.Tlb.Lru_replacement);
          compute_us_per_ref = 1;
        }
    in
    let i = ref 0 in
    fun () ->
      i := (!i + 633) land 65535;
      ignore (Paging.Demand.read engine !i)
  in
  [
    Test.make ~name:"substrate/alloc-free first-fit"
      (Staged.stage (alloc_free_cycle Freelist.Policy.First_fit));
    Test.make ~name:"substrate/alloc-free best-fit"
      (Staged.stage (alloc_free_cycle Freelist.Policy.Best_fit));
    Test.make ~name:"substrate/buddy cycle" (Staged.stage buddy_cycle);
    Test.make ~name:"substrate/rice-chain cycle" (Staged.stage rice_cycle);
    Test.make ~name:"substrate/fault-sim 1000 refs (LRU)" (Staged.stage fault_sim_ref);
    Test.make ~name:"substrate/fault-sim 1000 refs (LRU, ring sink)"
      (Staged.stage fault_sim_traced);
    Test.make ~name:"substrate/fault-sim 1000 refs (LRU, prof span off)"
      (Staged.stage fault_sim_prof_span);
    Test.make ~name:"substrate/tlb lookup" (Staged.stage tlb_lookup);
    Test.make ~name:"substrate/drum queue burst (SATF x8)" (Staged.stage drum_queue);
    Test.make ~name:"substrate/demand-engine read" (Staged.stage demand_read);
  ]

(* Telemetry kernels (lib/obs): the snapshot capture and watchdog
   evaluation hot paths — both sit on the event-emission path when
   --telemetry is on, so their cost is the overhead budget — and the
   chrome exporter over a 10^5-event synthetic trace. *)
let telemetry_kernels =
  let populated_registry () =
    let reg = Obs.Registry.create () in
    for k = 0 to 15 do
      let c = Obs.Registry.counter reg (Printf.sprintf "ev.kind%02d" k) in
      Obs.Registry.incr ~by:(k * 37) c
    done;
    for k = 0 to 3 do
      Obs.Registry.set (Obs.Registry.gauge reg (Printf.sprintf "g%d" k)) (float_of_int k)
    done;
    reg
  in
  let capture =
    let reg = populated_registry () in
    let chan = Obs.Telemetry.create ~capacity:64 ~every_us:1 () in
    let t = ref 0 in
    fun () ->
      incr t;
      ignore (Obs.Telemetry.capture chan ~t_us:!t reg)
  in
  let watchdog_feed =
    (* Four rules over a prebuilt snapshot cycle: one forever-violating
       threshold, one never-violating, a stall and a delta — the mix a
       real invocation carries. *)
    let rules =
      List.map
        (fun s -> Result.get_ok (Obs.Watch.parse s))
        [ "ev.kind05>10@3"; "ev.kind05<1@3"; "g2=@4"; "ev.kind09+5@4" ]
    in
    let w = Obs.Watch.create rules in
    let reg = populated_registry () in
    let chan = Obs.Telemetry.create ~capacity:4 ~every_us:1 () in
    let snaps =
      Array.init 16 (fun i -> Obs.Telemetry.capture chan ~t_us:(i + 1) reg)
    in
    let i = ref 0 in
    fun () ->
      incr i;
      ignore (Obs.Watch.feed w snaps.(!i land 15))
  in
  let chrome_export =
    (* 10^5 events: run boundary, engine instants, io async pairs. *)
    let events =
      List.init 100_000 (fun i ->
          let t_us = i * 3 in
          let kind =
            if i = 0 then
              Obs.Event.Run_start { run = 0; seed = Some 1; config = Some "bench" }
            else
              match i mod 5 with
              | 0 -> Obs.Event.Fault { page = i land 255 }
              | 1 -> Obs.Event.Io_start
                       { req = i / 5; page = i land 255; io = Obs.Event.Demand }
              | 2 -> Obs.Event.Io_done
                       { req = i / 5; page = i land 255; io = Obs.Event.Demand }
              | 3 -> Obs.Event.Eviction { page = i land 255 }
              | _ -> Obs.Event.Alloc { addr = i * 16; size = 16 }
          in
          { Obs.Event.t_us; kind })
    in
    fun () -> ignore (Obs.Export.chrome_of_events events)
  in
  [
    Test.make ~name:"telemetry/snapshot capture" (Staged.stage capture);
    Test.make ~name:"telemetry/watchdog feed" (Staged.stage watchdog_feed);
    Test.make ~name:"telemetry/chrome export 100k events"
      (Staged.stage chrome_export);
  ]

(* The sharded multicore kernels (lib/parallel).  The kernel names are
   deliberately independent of the execution width: CI benches the same
   family at --domains 1 and --domains 2 and gates the 2-domain run
   against the 1-domain run with `dsas_sim bench-diff`, which matches
   rows by name. *)
let parallel_kernels ~domains =
  let alloc =
    Parallel.Sharded.(alloc (alloc_config ~ops_per_shard:50_000 ~seed:0 ()))
  in
  let paging =
    Parallel.Sharded.(paging (paging_config ~refs_per_shard:2_000 ~seed:0 ()))
  in
  let freestack_cycle =
    let st = Parallel.Freestack.create () in
    Parallel.Freestack.push st 1;
    fun () ->
      match Parallel.Freestack.pop st with
      | Some v -> Parallel.Freestack.push st v
      | None -> ()
  in
  let fixed_alloc_cycle =
    let fa = Parallel.Fixed_alloc.create ~slots:512 ~slot_words:16 () in
    let c = Parallel.Fixed_alloc.cache fa in
    fun () ->
      match Parallel.Fixed_alloc.alloc c with
      | Some addr -> Parallel.Fixed_alloc.free c addr
      | None -> ()
  in
  [
    Test.make ~name:"par/freestack push-pop" (Staged.stage freestack_cycle);
    Test.make ~name:"par/fixed-alloc cycle" (Staged.stage fixed_alloc_cycle);
    Test.make ~name:"par/alloc shards=4"
      (Staged.stage (fun () ->
           ignore (Parallel.Sharded.run ~domains alloc)));
    Test.make ~name:"par/paging shards=4"
      (Staged.stage (fun () ->
           ignore (Parallel.Sharded.run ~domains paging)));
  ]

(* Throughput vs domains, 1 up to the machine's width (capped at the
   shard count): wall-clock over whole runs, the number the acceptance
   target (>= 2.5x at 4 domains for the fixed-size engine) reads off.
   Wall-clock lives here in the bench binary — the library itself never
   reads the host clock. *)
let throughput_sweep ~quick () =
  let cfg = Parallel.Sharded.alloc_config ~ops_per_shard:50_000 ~seed:0 () in
  let reps = if quick then 3 else 10 in
  let max_domains = min (Parallel.Pool.available_domains ()) cfg.a_shards in
  let alloc = Parallel.Sharded.alloc cfg in
  let time_at domains =
    ignore (Parallel.Sharded.run ~domains alloc);
    (* lint: allow L1 — the sweep measures host throughput *)
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (Parallel.Sharded.run ~domains alloc)
    done;
    (* lint: allow L1 — the sweep measures host throughput *)
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  let times = List.init max_domains (fun i -> (i + 1, time_at (i + 1))) in
  let base = match times with (_, t) :: _ -> t | [] -> 1. in
  let total_ops = cfg.a_shards * cfg.a_ops_per_shard in
  Printf.printf "par/alloc throughput vs domains (%d shards x %d ops, %d reps)\n"
    cfg.a_shards cfg.a_ops_per_shard reps;
  Metrics.Table.print ~headers:[ "domains"; "ms/run"; "Mops/s"; "speedup" ]
    (List.map
       (fun (d, t) ->
         [
           string_of_int d;
           Printf.sprintf "%.2f" (t *. 1e3);
           Printf.sprintf "%.1f" (float_of_int total_ops /. t /. 1e6);
           Printf.sprintf "%.2fx" (base /. t);
         ])
       times)

(* Measure each test's OLS ns/run; print a table and return the rows. *)
let run_bechamel ~quick tests =
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    if quick then Benchmark.cfg ~limit:50 ~quota:(Time.second 0.05) ~kde:None ()
    else Benchmark.cfg ~limit:250 ~quota:(Time.second 0.25) ~kde:None ()
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let rows =
    List.concat_map
      (fun test ->
        List.concat_map
          (fun elt ->
            let raw = Benchmark.run cfg [ instance ] elt in
            let est = Analyze.one ols instance raw in
            let ns =
              match Analyze.OLS.estimates est with
              | Some (t :: _) -> t
              | Some [] | None -> nan
            in
            let r2 = match Analyze.OLS.r_square est with Some r -> r | None -> nan in
            [ (Test.Elt.name elt, ns, r2) ])
          (Test.elements test))
      tests
  in
  Metrics.Table.print ~headers:[ "benchmark"; "ns/run"; "r²" ]
    (List.map
       (fun (name, ns, r2) ->
         [ name; Printf.sprintf "%.0f" ns; Printf.sprintf "%.3f" r2 ])
       rows);
  rows

let to_bench_results ~quick rows =
  {
    Obs.Bench.clock = "monotonic";
    quick;
    results =
      List.map
        (fun (name, ns, r2) ->
          {
            Obs.Bench.name;
            ns_per_run = ns;
            r_square = (if Float.is_nan r2 then None else Some r2);
          })
        rows;
  }

let main quick kernels_only domains json_out =
  if domains < 1 then begin
    prerr_endline "bench: --domains must be >= 1";
    exit 2
  end;
  if not kernels_only then begin
    print_endline "######################################################################";
    print_endline "# Dynamic Storage Allocation Systems (Randell & Kuehner, SOSP 1967) #";
    print_endline "# Part 1: every figure and claim, regenerated at full scale         #";
    print_endline "######################################################################\n";
    Experiments.Registry.run_all ();
    print_endline "######################################################################";
    print_endline "# Part 2: Bechamel micro-benchmarks (one per experiment kernel)     #";
    print_endline "######################################################################\n"
  end;
  let rows = run_bechamel ~quick experiment_kernels in
  print_newline ();
  let rows' = run_bechamel ~quick substrate_kernels in
  print_newline ();
  let tele_rows = run_bechamel ~quick telemetry_kernels in
  print_newline ();
  Printf.printf "parallel kernels at --domains %d\n" domains;
  let par_rows = run_bechamel ~quick (parallel_kernels ~domains) in
  print_newline ();
  throughput_sweep ~quick ();
  match json_out with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    output_string oc
      (Obs.Bench.to_json
         (to_bench_results ~quick (rows @ rows' @ tele_rows @ par_rows)));
    output_char oc '\n';
    close_out oc;
    Printf.printf "\nwrote %s\n" file

let () =
  let open Cmdliner in
  let quick =
    Arg.(value & flag
         & info [ "quick"; "q" ] ~doc:"Short sampling quota (CI smoke runs).")
  in
  let kernels_only =
    Arg.(value & flag
         & info [ "kernels-only" ]
             ~doc:"Skip Part 1 (the full-scale experiments); only run the \
                   Bechamel kernels.")
  in
  let domains =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"N"
             ~doc:"Execution width for the par/* kernels (kernel names stay \
                   the same, so two runs at different widths are diffable \
                   with `dsas_sim bench-diff`).")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the measurements as dsas-bench/1 JSON into $(docv), \
                   diffable with `dsas_sim bench-diff`.")
  in
  let doc = "Benchmark harness: full-scale experiments + Bechamel kernels." in
  let info = Cmd.info "bench" ~doc in
  exit
    (Cmd.eval
       (Cmd.v info Term.(const main $ quick $ kernels_only $ domains $ json_out)))

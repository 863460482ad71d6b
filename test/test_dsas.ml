(* Tests for the core library (System, Multiprog) and the appendix
   machines. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let toy_paged ?(policy = Paging.Spec.Lru) ?(tlb_capacity = 0) () =
  {
    Dsas.System.name = "toy-paged";
    characteristics =
      {
        Namespace.Characteristics.name_space = Namespace.Name_space.Linear { bits = 16 };
        predictive = Namespace.Characteristics.Programmer_directives;
        artificial_contiguity = true;
        allocation_unit = Namespace.Characteristics.Uniform 64;
      };
    core_words = 256;
    core_device = Memstore.Device.core;
    backing_words = 4096;
    backing_device = Memstore.Device.drum;
    mechanism =
      Dsas.System.Paged
        { page_size = 64; frames = 4; policy; tlb_capacity; device = Device.Spec.legacy };
    compute_us_per_ref = 1;
  }

let toy_segmented ?(max_segment = Some 128) () =
  {
    (toy_paged ()) with
    Dsas.System.name = "toy-segmented";
    core_words = 512;
    mechanism =
      Dsas.System.Segmented
        {
          placement = Freelist.Policy.Best_fit;
          replacement = Segmentation.Segment_store.Cyclic;
          max_segment;
        };
  }

let toy_two_level () =
  {
    (toy_paged ()) with
    Dsas.System.name = "toy-two-level";
    mechanism =
      Dsas.System.Segmented_paged
        { page_size = 64; frames = 4; policy = Paging.Spec.Lru; tlb_capacity = 8 };
  }

(* --- System --- *)

let test_run_linear_paged () =
  let trace = Workload.Trace.loop ~length:1000 ~extent:1024 ~working_set:200 in
  let r = Dsas.System.run_linear (toy_paged ()) trace in
  check_int "refs" 1000 r.Dsas.System.refs;
  (* 200-word working set = 4 pages exactly = fits in 4 frames. *)
  check_int "only cold faults" 4 r.Dsas.System.faults;
  check_bool "timed" true (r.Dsas.System.elapsed_us <> None);
  check_bool "space-time reported" true (r.Dsas.System.space_time_waiting_fraction <> None)

let test_run_linear_segmented_chops () =
  let trace = Workload.Trace.loop ~length:500 ~extent:512 ~working_set:256 in
  let r = Dsas.System.run_linear (toy_segmented ()) trace in
  check_int "refs" 500 r.Dsas.System.refs;
  (* 256-word working set over 128-word segments: 2 segment faults. *)
  check_int "two segment faults" 2 r.Dsas.System.faults;
  check_bool "fragmentation reported" true (r.Dsas.System.external_fragmentation <> None)

let test_run_segmented_all_mechanisms () =
  let segments = [| 100; 50; 200 |] in
  let rng = Sim.Rng.create 3 in
  let refs =
    Array.init 600 (fun _ ->
        let s = Sim.Rng.int rng 3 in
        (s, Sim.Rng.int rng segments.(s)))
  in
  List.iter
    (fun system ->
      let r = Dsas.System.run_segmented system ~segments refs in
      check_int (system.Dsas.System.name ^ " refs") 600 r.Dsas.System.refs;
      check_bool (system.Dsas.System.name ^ " faulted") true (r.Dsas.System.faults > 0))
    [ toy_paged (); toy_segmented ~max_segment:(Some 256) (); toy_two_level () ]

let test_run_annotated_only_paged () =
  let steps = [| Predictive.Directive.Reference 0 |] in
  let r = Dsas.System.run_annotated (toy_paged ()) steps in
  check_int "one ref" 1 r.Dsas.System.refs;
  check_bool "segmented rejects advice" true
    (match Dsas.System.run_annotated (toy_segmented ()) steps with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_runs_are_deterministic () =
  let rng = Sim.Rng.create 5 in
  let trace = Workload.Trace.uniform rng ~length:2000 ~extent:2048 in
  let sys = toy_paged ~policy:Paging.Spec.Random () in
  let a = Dsas.System.run_linear sys ~seed:9 trace in
  let b = Dsas.System.run_linear sys ~seed:9 trace in
  check_int "same faults same seed" a.Dsas.System.faults b.Dsas.System.faults;
  check_bool "same elapsed" true (a.Dsas.System.elapsed_us = b.Dsas.System.elapsed_us)

let test_opt_spec_via_system () =
  let trace = Workload.Trace.loop ~length:400 ~extent:512 ~working_set:320 in
  let lru = Dsas.System.run_linear (toy_paged ~policy:Paging.Spec.Lru ()) trace in
  let opt = Dsas.System.run_linear (toy_paged ~policy:Paging.Spec.Opt ()) trace in
  check_bool "OPT <= LRU" true (opt.Dsas.System.faults <= lru.Dsas.System.faults)

let test_report_rows_shape () =
  let trace = Workload.Trace.sequential ~length:100 ~extent:128 in
  let r = Dsas.System.run_linear (toy_paged ()) trace in
  let rows = Dsas.System.report_rows [ r ] in
  check_int "one row" 1 (List.length rows);
  check_int "matches headers" (List.length Dsas.System.report_headers)
    (List.length (List.hd rows))

(* --- Multiprog --- *)

let job_of_trace name refs = Workload.Job.make ~name ~refs ~compute_us_per_ref:10

let test_multiprog_single_job () =
  let refs = Workload.Trace.loop ~length:100 ~extent:8 ~working_set:4 in
  let report =
    Dsas.Multiprog.run ~frames:8 ~policy:(Paging.Replacement.lru ()) ~fetch_us:1000
      [ job_of_trace "solo" refs ]
  in
  check_int "one job" 1 (List.length report.Dsas.Multiprog.jobs);
  check_int "faults = cold" 4 report.Dsas.Multiprog.total_faults;
  (* 100 refs x 10us compute + 4 fetches x 1000us, serial. *)
  check_int "elapsed" (1000 + 4000) report.Dsas.Multiprog.elapsed_us;
  check_int "busy" 1000 report.Dsas.Multiprog.cpu_busy_us

let test_multiprog_overlap_raises_utilization () =
  let rng = Sim.Rng.create 11 in
  let utilization k =
    let jobs =
      Workload.Job.mix (Sim.Rng.split rng) ~jobs:k ~refs_per_job:300 ~pages_per_job:16
        ~locality:0.9 ~compute_us_per_ref:10
    in
    let report =
      Dsas.Multiprog.run ~frames:(16 * k) ~policy:(Paging.Replacement.lru ())
        ~fetch_us:250 jobs
    in
    report.Dsas.Multiprog.cpu_utilization
  in
  let u1 = utilization 1 and u4 = utilization 4 in
  check_bool "multiprogramming hides fetch latency" true (u4 > u1);
  check_bool "single job mostly waits on a slow store" true (u1 < 0.5)

let test_multiprog_all_jobs_finish () =
  let rng = Sim.Rng.create 13 in
  let jobs =
    Workload.Job.mix rng ~jobs:3 ~refs_per_job:200 ~pages_per_job:12 ~locality:0.8
      ~compute_us_per_ref:5
  in
  let report =
    Dsas.Multiprog.run ~frames:8 ~policy:(Paging.Replacement.clock_sweep ()) ~fetch_us:2000
      jobs
  in
  List.iter
    (fun j ->
      check_int (j.Dsas.Multiprog.job ^ " completed") 200 j.Dsas.Multiprog.refs;
      check_bool (j.Dsas.Multiprog.job ^ " finish recorded") true
        (j.Dsas.Multiprog.finish_us > 0))
    report.Dsas.Multiprog.jobs;
  check_bool "cpu utilization sane" true
    (report.Dsas.Multiprog.cpu_utilization > 0.
    && report.Dsas.Multiprog.cpu_utilization <= 1.)

let test_multiprog_shared_pool_pressure () =
  let rng = Sim.Rng.create 17 in
  let jobs k =
    Workload.Job.mix (Sim.Rng.split rng) ~jobs:k ~refs_per_job:200 ~pages_per_job:16
      ~locality:0.95 ~compute_us_per_ref:10
  in
  (* Fixed small pool: adding jobs eventually thrashes. *)
  let faults k =
    (Dsas.Multiprog.run ~frames:24 ~policy:(Paging.Replacement.lru ()) ~fetch_us:3000
       (jobs k))
      .Dsas.Multiprog.total_faults
  in
  check_bool "more jobs, more faults under fixed store" true (faults 6 > faults 1)

(* --- Multiprog against its oracle --- *)

type multiprog_case = {
  spec : Paging.Spec.t;
  seed : int;
  jobs : int;
  pages_per_job : int;
  refs_per_job : int;
  frames : int;
  quantum_refs : int;
  max_restarts : int;
  fetch_us : int;
  device : (string * Device.Sched.t * bool) option;  (* geometry, sched, failing reads *)
  controller : int option;  (* decision window, us *)
}

let print_multiprog_case c =
  Printf.sprintf
    "%s seed=%d jobs=%d pages/job=%d refs/job=%d frames=%d quantum=%d restarts=%d \
     fetch=%d device=%s controller=%s"
    (Paging.Spec.to_string c.spec) c.seed c.jobs c.pages_per_job c.refs_per_job c.frames
    c.quantum_refs c.max_restarts c.fetch_us
    (match c.device with
     | None -> "none"
     | Some (g, sched, failing) ->
       Printf.sprintf "%s/%s%s" g (Device.Sched.name sched) (if failing then "+fail" else ""))
    (match c.controller with None -> "off" | Some p -> string_of_int p)

(* Frames below the total page count, so pages are evicted, and often
   below the job count, so faulting jobs stall on a pool of in-flight
   pages. *)
let multiprog_case_gen =
  let open QCheck.Gen in
  let* spec = oneofl Paging.Spec.all_practical in
  let* seed = int_bound 1_000_000 in
  let* jobs = int_range 1 6 in
  let* pages_per_job = int_range 2 12 in
  let* refs_per_job = int_range 1 150 in
  let* frames =
    frequency
      [ (1, int_range 1 (max 1 (jobs - 1))); (3, int_range 1 ((jobs * pages_per_job) - 1)) ]
  in
  let* quantum_refs = int_range 1 60 in
  let* max_restarts = int_range 0 3 in
  let* fetch_us = int_range 0 5_000 in
  let* device =
    frequency
      [ (1, return None);
        ( 3,
          map3
            (fun g sched failing -> Some (g, sched, failing))
            (oneofl [ "fixed"; "drum"; "disk" ])
            (oneofl [ Device.Sched.Fifo; Device.Sched.Satf ])
            (frequency [ (2, return false); (1, return true) ]) ) ]
  in
  let+ controller = option (int_range 500 20_000) in
  { spec; seed; jobs; pages_per_job; refs_per_job; frames; quantum_refs; max_restarts;
    fetch_us; device; controller }

let multiprog_oracle_property =
  QCheck.Test.make ~name:"multiprog on resident slots matches the Hashtbl oracle" ~count:300
    (QCheck.make ~print:print_multiprog_case multiprog_case_gen)
    (fun c ->
      let specs =
        Workload.Job.mix (Sim.Rng.create c.seed) ~jobs:c.jobs ~refs_per_job:c.refs_per_job
          ~pages_per_job:c.pages_per_job ~locality:0.8 ~compute_us_per_ref:40
      in
      (* Fresh policy, device and controller per run: all carry state. *)
      let run engine =
        let events = ref [] in
        let obs = Obs.Sink.collect (fun e -> events := e :: !events) in
        let device =
          Option.map
            (fun (g, sched, failing) ->
              let geometry =
                match g with
                | "fixed" -> Device.Geometry.fixed_us 3_000
                | "drum" -> Device.Geometry.atlas_drum
                | _ -> Device.Geometry.paper_disk
              in
              let fault =
                if failing then
                  Some
                    (Device.Fault.config ~seed:c.seed ~read_error_prob:0.2
                       ~permanent_prob:0.25 ~on_exhausted:Device.Fault.Fail ())
                else None
              in
              Device.Model.create ~obs (Device.Model.config ?fault ~sched geometry))
            c.device
        in
        let controller =
          Option.map
            (fun period_us ->
              Resilience.Controller.create (Resilience.Controller.config ~period_us ()))
            c.controller
        in
        let policy =
          Paging.Spec.instantiate c.spec ~rng:(Sim.Rng.create c.seed) ~trace:None
        in
        let report =
          match
            engine ~quantum_refs:c.quantum_refs ~obs ?device ~max_restarts:c.max_restarts
              ?controller ~frames:c.frames ~policy ~fetch_us:c.fetch_us specs
          with
          | r -> Ok r
          | exception e -> Error (Printexc.to_string e)
        in
        let shed =
          Option.map
            (fun ctl -> (Resilience.Controller.sheds ctl, Resilience.Controller.admits ctl))
            controller
        in
        (report, shed, List.rev !events)
      in
      let expected =
        run (fun ~quantum_refs ~obs ?device ~max_restarts ?controller ->
            Ref_multiprog.run ~quantum_refs ~obs ?device ~max_restarts ?controller)
      in
      let got =
        run (fun ~quantum_refs ~obs ?device ~max_restarts ?controller ->
            Dsas.Multiprog.run ~quantum_refs ~obs ?device ~max_restarts ?controller)
      in
      expected = got)

(* --- Machines --- *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec loop i = i + n <= h && (String.sub hay i n = needle || loop (i + 1)) in
  n = 0 || loop 0

let test_seven_machines () =
  check_int "appendix count" 7 (List.length Machines.Survey.all);
  let names = List.map (fun (s, _) -> s.Dsas.System.name) Machines.Survey.all in
  check_bool "order" true
    (names = [ "ATLAS"; "M44/44X"; "B5000"; "Rice"; "B8500"; "MULTICS"; "360/67" ])

let test_characteristics_table () =
  let table = Machines.Survey.characteristics_table () in
  List.iter
    (fun fragment ->
      check_bool (fragment ^ " present") true (contains ~needle:fragment table))
    [ "ATLAS"; "linear"; "symbolically segmented"; "variable"; "512" ]

let test_survey_smoke () =
  let reports = Machines.Survey.run ~seed:3 ~refs:2_000 () in
  check_int "seven reports" 7 (List.length reports);
  List.iter
    (fun r ->
      check_int (r.Dsas.System.system ^ " refs") 2_000 r.Dsas.System.refs;
      check_bool (r.Dsas.System.system ^ " faults sane") true
        (r.Dsas.System.faults >= 0 && r.Dsas.System.faults <= 2_000))
    reports;
  check_bool "rendered" true (String.length (Machines.Survey.render reports) > 100)

let test_multics_dual_page_size () =
  let objects = [ 100; 1500; 64; 1025; 3000; 10 ] in
  let dual = Machines.Multics.dual_page_waste ~object_words:objects in
  let single_large = Machines.Multics.single_page_waste ~page:1024 ~object_words:objects in
  let single_small = Machines.Multics.single_page_waste ~page:64 ~object_words:objects in
  check_bool "dual beats uniform 1024" true (dual < single_large);
  (* 64-word pages waste least space (but cost the most table entries). *)
  check_bool "dual >= uniform 64" true (dual >= single_small);
  check_int "dual waste exact" (28 + 36 + 0 + 63 + 8 + 54) dual

let test_m44_page_size_variants () =
  List.iter
    (fun p ->
      let s = Machines.M44.with_page_size p in
      match s.Dsas.System.mechanism with
      | Dsas.System.Paged { page_size; frames; _ } ->
        check_int "page size" p page_size;
        check_int "frames fill core" 196_608 (frames * p)
      | Dsas.System.Segmented _ | Dsas.System.Segmented_paged _ ->
        Alcotest.fail "M44 must be paged")
    Machines.M44.page_size_variants

let () =
  Alcotest.run "dsas"
    [
      ( "system",
        [
          Alcotest.test_case "linear paged" `Quick test_run_linear_paged;
          Alcotest.test_case "linear segmented chops" `Quick test_run_linear_segmented_chops;
          Alcotest.test_case "segmented all mechanisms" `Quick test_run_segmented_all_mechanisms;
          Alcotest.test_case "annotated only paged" `Quick test_run_annotated_only_paged;
          Alcotest.test_case "deterministic" `Quick test_runs_are_deterministic;
          Alcotest.test_case "opt spec" `Quick test_opt_spec_via_system;
          Alcotest.test_case "report rows" `Quick test_report_rows_shape;
        ] );
      ( "multiprog",
        [
          Alcotest.test_case "single job" `Quick test_multiprog_single_job;
          Alcotest.test_case "overlap raises utilization" `Quick test_multiprog_overlap_raises_utilization;
          Alcotest.test_case "all jobs finish" `Quick test_multiprog_all_jobs_finish;
          Alcotest.test_case "shared pool pressure" `Quick test_multiprog_shared_pool_pressure;
          QCheck_alcotest.to_alcotest multiprog_oracle_property;
        ] );
      ( "machines",
        [
          Alcotest.test_case "seven machines" `Quick test_seven_machines;
          Alcotest.test_case "characteristics table" `Quick test_characteristics_table;
          Alcotest.test_case "survey smoke" `Quick test_survey_smoke;
          Alcotest.test_case "multics dual page size" `Quick test_multics_dual_page_size;
          Alcotest.test_case "m44 variants" `Quick test_m44_page_size_variants;
        ] );
    ]

(* Tests for the timed backing-store subsystem (lib/device): geometry
   timing, scheduling policies, channel overlap, writeback batching,
   fault injection, and the equivalence of the Fixed geometry with the
   legacy flat-latency arithmetic in Paging.Demand.  The open-loop
   paging drum of X8 is tested in test_memstore. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* 16 sectors, 16 ms revolution, word_ns = 0: one sector per ms. *)
let drum = Device.Geometry.atlas_drum

(* --- Geometry --- *)

let test_fixed_service () =
  let g = Device.Geometry.fixed_us 5_000 in
  let start, fin, head' = Device.Geometry.service g ~at:7 ~head:3 ~page:9 ~words:256 in
  check_int "starts immediately" 7 start;
  check_int "flat cost" 5_007 fin;
  check_int "head untouched" 3 head'

let test_drum_rotation () =
  (* Page 3 lives in sector 3; from t = 0 it arrives under the heads at
     3 ms and takes one sector time to transfer. *)
  let start, fin, _ = Device.Geometry.service drum ~at:0 ~head:0 ~page:3 ~words:0 in
  check_int "waits for its sector" 3_000 start;
  check_int "one sector to transfer" 4_000 fin;
  (* Just missed it: a full revolution until the next pass. *)
  let start, _, _ = Device.Geometry.service drum ~at:3_500 ~head:0 ~page:3 ~words:0 in
  check_int "full revolution on a miss" 19_000 start;
  (* Sector addressing wraps with the page number. *)
  check_int "sector wraps" 3 (Device.Geometry.sector_of drum ~page:19)

let test_disk_seek_moves_head () =
  let disk = Device.Geometry.paper_disk in
  let page = 3 * 8 in
  (* cylinder 3, sector 0 *)
  let start_far, _, head' = Device.Geometry.service disk ~at:0 ~head:0 ~page ~words:0 in
  check_int "head follows the seek" 3 head';
  let start_near, _, _ = Device.Geometry.service disk ~at:0 ~head:3 ~page ~words:0 in
  check_bool "seek delays the start" true (start_near < start_far)

let test_worst_us_bounds_service () =
  let worst = Device.Geometry.worst_us drum ~words:256 in
  for page = 0 to 31 do
    for k = 0 to 5 do
      let at = k * 1_234 in
      let _, fin, _ = Device.Geometry.service drum ~at ~head:0 ~page ~words:256 in
      check_bool "worst_us bounds any single service" true (fin - at <= worst)
    done
  done

let test_geometry_of_string () =
  check_bool "drum parses (any case)" true
    (match Device.Geometry.of_string "DRUM" with Ok _ -> true | Error _ -> false);
  check_bool "unknown device rejected" true
    (match Device.Geometry.of_string "tape" with Error _ -> true | Ok _ -> false);
  check_bool "unknown sched rejected" true
    (match Device.Sched.of_string "elevator" with Error _ -> true | Ok _ -> false)

(* --- Scheduling --- *)

(* Eight requests to scattered sectors, all queued at t = 0, drained
   synchronously: the mean latency under each policy. *)
let batch_latency ~sched =
  let m = Device.Model.create (Device.Model.config ~sched drum) in
  let ids =
    List.init 8 (fun k ->
        Device.Model.submit m ~now:0 ~kind:Device.Request.Demand ~page:(k * 5 mod 16)
          ~words:0)
  in
  List.iter (fun id -> ignore (Device.Model.completion_us m id)) ids;
  (Device.Model.stats m).Device.Model.mean_read_latency_us

let test_satf_beats_fifo () =
  (* FIFO chases sectors in submission order and loses revolutions;
     SATF sweeps them in rotational order. *)
  check_bool "satf strictly faster at depth > 1" true
    (batch_latency ~sched:Device.Sched.Satf < batch_latency ~sched:Device.Sched.Fifo)

let test_priority_serves_demand_first () =
  let m = Device.Model.create (Device.Model.config ~sched:Device.Sched.Priority drum) in
  let wb =
    List.init 4 (fun k ->
        Device.Model.submit m ~now:0 ~kind:Device.Request.Writeback ~page:(k * 4) ~words:0)
  in
  let d = Device.Model.submit m ~now:0 ~kind:Device.Request.Demand ~page:9 ~words:0 in
  let d_fin = Device.Model.completion_us m d in
  List.iter
    (fun id ->
      check_bool "demand jumps the writeback queue" true
        (d_fin < Device.Model.completion_us m id))
    wb

let test_channels_overlap () =
  let span channels =
    let m =
      Device.Model.create (Device.Model.config ~channels (Device.Geometry.fixed_us 1_000))
    in
    let ids =
      List.init 6 (fun k ->
          Device.Model.submit m ~now:0 ~kind:Device.Request.Demand ~page:k ~words:0)
    in
    List.fold_left (fun acc id -> max acc (Device.Model.completion_us m id)) 0 ids
  in
  check_int "one channel serialises" 6_000 (span 1);
  check_int "two channels halve the span" 3_000 (span 2)

let test_writeback_batching () =
  let busy batch =
    let m = Device.Model.create (Device.Model.config ~writeback_batch:batch drum) in
    let ids =
      List.init 4 (fun k ->
          Device.Model.submit m ~now:0 ~kind:Device.Request.Writeback ~page:(k * 4)
            ~words:256)
    in
    List.iter (fun id -> ignore (Device.Model.completion_us m id)) ids;
    (Device.Model.stats m).Device.Model.busy_us
  in
  check_bool "streamed writebacks cut channel time" true (busy 4 < busy 1)

let test_event_loop_delivery () =
  let m = Device.Model.create (Device.Model.config (Device.Geometry.fixed_us 1_000)) in
  let a = Device.Model.submit m ~now:0 ~kind:Device.Request.Demand ~page:0 ~words:0 in
  let b = Device.Model.submit m ~now:0 ~kind:Device.Request.Demand ~page:1 ~words:0 in
  check_int "both pending" 2 (Device.Model.pending m);
  let got = ref [] in
  Device.Model.deliver_due m ~now:500 (fun id fin -> got := (id, fin) :: !got);
  check_int "nothing due yet" 0 (List.length !got);
  Device.Model.deliver_due m ~now:2_000 (fun id fin -> got := (id, fin) :: !got);
  check_bool "delivered in finish order" true (List.rev !got = [ (a, 1_000); (b, 2_000) ]);
  check_bool "then idle" true (Device.Model.take_completion m = None)

let test_double_completion_rejected () =
  let m = Device.Model.create (Device.Model.config drum) in
  let id = Device.Model.submit m ~now:0 ~kind:Device.Request.Demand ~page:1 ~words:0 in
  ignore (Device.Model.completion_us m id);
  check_bool "consumed completions cannot be re-read" true
    (match Device.Model.completion_us m id with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* --- Equivalence with the legacy flat path --- *)

let page_size = 64
let frames = 4
let pages = 12

let demand_engine ?device () =
  let clock = Sim.Clock.create () in
  let core =
    Memstore.Level.make clock Memstore.Device.core ~name:"core"
      ~words:(frames * page_size)
  in
  let backing =
    Memstore.Level.make clock Memstore.Device.drum ~name:"backing"
      ~words:(pages * page_size)
  in
  Paging.Demand.create ?device
    {
      Paging.Demand.page_size;
      frames;
      pages;
      core;
      backing;
      policy = Paging.Replacement.lru ();
      tlb = None;
      compute_us_per_ref = 5;
    }

let mixed_trace ~refs =
  let rng = Sim.Rng.create 7 in
  Array.init refs (fun _ -> Sim.Rng.int rng (pages * page_size))

(* One write in four: modified evictions exercise the writeback path. *)
let run_trace engine trace =
  Array.iteri
    (fun i a ->
      if i land 3 = 0 then Paging.Demand.write engine a (Int64.of_int (a + 1))
      else ignore (Paging.Demand.read engine a))
    trace

let test_fixed_fifo_matches_legacy () =
  let trace = mixed_trace ~refs:600 in
  let legacy = demand_engine () in
  run_trace legacy trace;
  let timed =
    demand_engine
      ~device:
        (Device.Model.create
           (Device.Model.config (Device.Geometry.fixed Memstore.Device.drum)))
      ()
  in
  run_trace timed trace;
  check_int "same fault count" (Paging.Demand.faults legacy) (Paging.Demand.faults timed);
  check_int "same simulated clock"
    (Sim.Clock.now (Paging.Demand.clock legacy))
    (Sim.Clock.now (Paging.Demand.clock timed))

(* --- Fault injection --- *)

let test_faults_are_timing_only () =
  let trace = mixed_trace ~refs:400 in
  let run fault =
    let model = Device.Model.create (Device.Model.config ?fault drum) in
    let engine = demand_engine ~device:model () in
    run_trace engine trace;
    let sum =
      Array.fold_left (fun acc a -> Int64.add acc (Paging.Demand.read engine a)) 0L trace
    in
    (model, Paging.Demand.faults engine, sum)
  in
  let _, faults0, sum0 = run None in
  let model, faults1, sum1 = run (Some (Device.Fault.config ~read_error_prob:0.3 ())) in
  let st = Device.Model.stats model in
  check_bool "errors were injected" true (st.Device.Model.injected > 0);
  check_bool "and retried" true (st.Device.Model.retries > 0);
  check_int "fault count unchanged" faults0 faults1;
  Alcotest.(check int64) "memory contents unchanged" sum0 sum1

let test_degraded_fallback_is_bounded () =
  let fault = Device.Fault.config ~read_error_prob:1.0 ~max_retries:2 () in
  let m = Device.Model.create (Device.Model.config ~fault drum) in
  let fin = Device.Model.fetch m ~now:0 ~kind:Device.Request.Demand ~page:5 ~words:0 in
  let st = Device.Model.stats m in
  check_int "every attempt failed" 3 st.Device.Model.injected;
  check_int "retries stop at the budget" 2 st.Device.Model.retries;
  check_int "then degraded mode" 1 st.Device.Model.degraded;
  check_bool "which still completes" true (fin > 0)

let test_writes_never_fault () =
  let fault = Device.Fault.config ~read_error_prob:1.0 ~max_retries:0 () in
  let m = Device.Model.create (Device.Model.config ~fault drum) in
  let id = Device.Model.submit m ~now:0 ~kind:Device.Request.Writeback ~page:3 ~words:0 in
  ignore (Device.Model.completion_us m id);
  check_int "write path injects nothing" 0 (Device.Model.stats m).Device.Model.injected

let test_retries_surface_as_events () =
  let retries = ref 0 in
  let sink =
    Obs.Sink.collect (fun e ->
        match e.Obs.Event.kind with Obs.Event.Io_retry _ -> incr retries | _ -> ())
  in
  let fault = Device.Fault.config ~read_error_prob:1.0 ~max_retries:1 () in
  let m = Device.Model.create ~obs:sink (Device.Model.config ~fault drum) in
  ignore (Device.Model.fetch m ~now:0 ~kind:Device.Request.Demand ~page:2 ~words:0);
  check_int "one Io_retry per failed attempt" 2 !retries

(* --- Spec --- *)

let test_spec_legacy_instantiates_to_none () =
  check_bool "legacy means no model" true
    (Option.is_none (Device.Spec.instantiate Device.Spec.legacy));
  check_bool "a geometry means a model" true
    (Option.is_some (Device.Spec.instantiate (Device.Spec.make drum)))

let () =
  Alcotest.run "device"
    [
      ( "geometry",
        [
          Alcotest.test_case "fixed service" `Quick test_fixed_service;
          Alcotest.test_case "drum rotation" `Quick test_drum_rotation;
          Alcotest.test_case "disk seek" `Quick test_disk_seek_moves_head;
          Alcotest.test_case "worst_us bound" `Quick test_worst_us_bounds_service;
          Alcotest.test_case "of_string" `Quick test_geometry_of_string;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "satf beats fifo" `Quick test_satf_beats_fifo;
          Alcotest.test_case "priority" `Quick test_priority_serves_demand_first;
          Alcotest.test_case "channels overlap" `Quick test_channels_overlap;
          Alcotest.test_case "writeback batching" `Quick test_writeback_batching;
          Alcotest.test_case "event-loop delivery" `Quick test_event_loop_delivery;
          Alcotest.test_case "double completion" `Quick test_double_completion_rejected;
        ] );
      ( "engines",
        [
          Alcotest.test_case "fixed/fifo = legacy" `Quick test_fixed_fifo_matches_legacy;
          Alcotest.test_case "spec legacy" `Quick test_spec_legacy_instantiates_to_none;
        ] );
      ( "faults",
        [
          Alcotest.test_case "timing only" `Quick test_faults_are_timing_only;
          Alcotest.test_case "degraded fallback" `Quick test_degraded_fallback_is_bounded;
          Alcotest.test_case "writes never fault" `Quick test_writes_never_fault;
          Alcotest.test_case "Io_retry events" `Quick test_retries_surface_as_events;
        ] );
    ]

(* Tests for the memstore library: physical stores, devices, levels,
   channel; and the open-loop paging drum of X8, served by the device
   model and differentially tested against the old drum scheduler kept
   in Ref_drum. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_i64 = Alcotest.(check int64)

(* --- Physical --- *)

let test_physical_read_write () =
  let mem = Memstore.Physical.create ~name:"core" ~words:64 in
  check_i64 "zero filled" 0L (Memstore.Physical.read mem 0);
  Memstore.Physical.write mem 10 123456789L;
  check_i64 "round trip" 123456789L (Memstore.Physical.read mem 10);
  Memstore.Physical.write mem 63 (-1L);
  check_i64 "last word" (-1L) (Memstore.Physical.read mem 63);
  check_int "size" 64 (Memstore.Physical.size mem)

let test_physical_bounds () =
  let mem = Memstore.Physical.create ~name:"core" ~words:8 in
  let raises f =
    match f () with
    | _ -> false
    | exception Memstore.Physical.Bound_violation _ -> true
  in
  check_bool "read -1" true (raises (fun () -> Memstore.Physical.read mem (-1)));
  check_bool "read 8" true (raises (fun () -> Memstore.Physical.read mem 8));
  check_bool "write 8" true (raises (fun () -> Memstore.Physical.write mem 8 0L));
  check_bool "blit over end" true
    (raises (fun () ->
         Memstore.Physical.blit ~src:mem ~src_off:4 ~dst:mem ~dst_off:6 ~len:3))

let test_physical_blit_overlap () =
  let mem = Memstore.Physical.create ~name:"core" ~words:16 in
  for i = 0 to 7 do
    Memstore.Physical.write mem i (Int64.of_int (100 + i))
  done;
  (* Overlapping move down by 2. *)
  Memstore.Physical.blit ~src:mem ~src_off:2 ~dst:mem ~dst_off:0 ~len:6;
  for i = 0 to 5 do
    check_i64 "moved word" (Int64.of_int (102 + i)) (Memstore.Physical.read mem i)
  done

let test_physical_fill_and_counters () =
  let mem = Memstore.Physical.create ~name:"core" ~words:16 in
  Memstore.Physical.fill mem ~off:2 ~len:4 7L;
  check_i64 "filled" 7L (Memstore.Physical.read mem 3);
  check_i64 "outside fill" 0L (Memstore.Physical.read mem 6);
  check_bool "write counter counts fill" true (Memstore.Physical.writes mem >= 4);
  check_bool "read counter" true (Memstore.Physical.reads mem >= 2)

let test_physical_int_words () =
  let mem = Memstore.Physical.create ~name:"core" ~words:8 in
  let raises f =
    match f () with
    | _ -> false
    | exception Memstore.Physical.Bound_violation _ -> true
  in
  check_bool "read_int -1" true (raises (fun () -> Memstore.Physical.read_int mem (-1)));
  check_bool "read_int 8" true (raises (fun () -> Memstore.Physical.read_int mem 8));
  check_bool "write_int -1" true (raises (fun () -> Memstore.Physical.write_int mem (-1) 0));
  check_bool "write_int 8" true (raises (fun () -> Memstore.Physical.write_int mem 8 0));
  check_int "rejected accesses count nothing" 0
    (Memstore.Physical.reads mem + Memstore.Physical.writes mem);
  (* The int accessors count exactly like the int64 ones. *)
  Memstore.Physical.write_int mem 3 Freelist.Block.null;
  check_int "one write" 1 (Memstore.Physical.writes mem);
  check_int "null round-trips" Freelist.Block.null (Memstore.Physical.read_int mem 3);
  check_int "one read" 1 (Memstore.Physical.reads mem);
  check_i64 "as the int64 -1" (-1L) (Memstore.Physical.read mem 3);
  check_int "two reads" 2 (Memstore.Physical.reads mem);
  Memstore.Physical.write mem 4 1234L;
  check_int "read_int of an int64 write" 1234 (Memstore.Physical.read_int mem 4);
  Memstore.Physical.write_int mem 5 max_int;
  check_int "max_int round-trips" max_int (Memstore.Physical.read_int mem 5);
  check_int "writes" 3 (Memstore.Physical.writes mem);
  check_int "reads" 4 (Memstore.Physical.reads mem)

(* --- Device --- *)

let test_device_costs () =
  check_int "core word" 2 (Memstore.Device.word_access_us Memstore.Device.core);
  check_int "core transfer 512" 2
    (Memstore.Device.transfer_us Memstore.Device.core ~words:512);
  check_int "drum transfer 512" (6_000 + 2_048)
    (Memstore.Device.transfer_us Memstore.Device.drum ~words:512);
  check_bool "disk slower than drum" true
    (Memstore.Device.transfer_us Memstore.Device.disk ~words:512
    > Memstore.Device.transfer_us Memstore.Device.drum ~words:512)

let test_device_zero_cost_floor () =
  let free = Memstore.Device.custom ~label:"free" ~latency_us:0 ~word_ns:0 in
  check_int "zero device zero cost" 0 (Memstore.Device.word_access_us free);
  let fast = Memstore.Device.custom ~label:"fast" ~latency_us:0 ~word_ns:1 in
  check_int "sub-us floors to 1" 1 (Memstore.Device.word_access_us fast)

(* --- Level --- *)

let test_level_charges_clock () =
  let clock = Sim.Clock.create () in
  let core = Memstore.Level.make clock Memstore.Device.core ~name:"core" ~words:32 in
  Memstore.Level.write core 0 42L;
  check_int "write cost" 2 (Sim.Clock.now clock);
  check_i64 "value" 42L (Memstore.Level.read core 0);
  check_int "read cost" 4 (Sim.Clock.now clock);
  check_i64 "free read" 42L (Memstore.Level.read_free core 0);
  check_int "free read is free" 4 (Sim.Clock.now clock)

let test_level_transfer () =
  let clock = Sim.Clock.create () in
  let core = Memstore.Level.make clock Memstore.Device.core ~name:"core" ~words:1024 in
  let drum = Memstore.Level.make clock Memstore.Device.drum ~name:"drum" ~words:1024 in
  Memstore.Level.write drum 100 77L;
  let before = Sim.Clock.now clock in
  Memstore.Level.transfer ~src:drum ~src_off:100 ~dst:core ~dst_off:0 ~len:512;
  check_i64 "data arrived" 77L (Memstore.Level.read_free core 0);
  check_int "charged slower device"
    (Memstore.Device.transfer_us Memstore.Device.drum ~words:512)
    (Sim.Clock.now clock - before)

let test_level_transfer_async_queues () =
  let clock = Sim.Clock.create () in
  let core = Memstore.Level.make clock Memstore.Device.core ~name:"core" ~words:4096 in
  let drum = Memstore.Level.make clock Memstore.Device.drum ~name:"drum" ~words:4096 in
  let t1 = Memstore.Level.transfer_async ~src:drum ~src_off:0 ~dst:core ~dst_off:0 ~len:512 in
  let t2 = Memstore.Level.transfer_async ~src:drum ~src_off:512 ~dst:core ~dst_off:512 ~len:512 in
  check_int "clock not advanced" 0 (Sim.Clock.now clock);
  let unit_cost = Memstore.Device.transfer_us Memstore.Device.drum ~words:512 in
  check_int "first completes after one transfer" unit_cost t1;
  check_int "second queues behind first" (2 * unit_cost) t2;
  check_int "busy_until tracks" (2 * unit_cost) (Memstore.Level.busy_until drum)

(* --- The paging drum of X8 --- *)

type served = { id : int; arrival_us : int; sector : int; start_us : int; finish_us : int }

(* Serve an open-loop batch of [(arrival_us, sector)] requests on a
   one-channel sector drum the way X8 does: in arrival order, delivering
   everything due before each arrival before submitting it, then
   draining.  Start times are read off the model's [Io_start] events.
   Returns the requests in service order, with ids their positions in
   the sorted batch, and the model's mean read latency. *)
let serve_drum ~sched ~sectors ~rotation_us batch =
  let batch = Array.of_list (List.stable_sort (fun (a, _) (b, _) -> compare a b) batch) in
  let starts = Hashtbl.create 16 in
  let obs =
    Obs.Sink.collect (fun e ->
        match e.Obs.Event.kind with
        | Obs.Event.Io_start { req; _ } -> Hashtbl.replace starts req e.Obs.Event.t_us
        | _ -> ())
  in
  let m =
    Device.Model.create ~obs
      (Device.Model.config ~sched (Device.Geometry.drum ~sectors ~rotation_us ()))
  in
  let served = ref [] in
  let note id finish_us =
    let arrival_us, sector = batch.(id) in
    served := { id; arrival_us; sector; start_us = Hashtbl.find starts id; finish_us } :: !served
  in
  Array.iter
    (fun (arrival_us, sector) ->
      Device.Model.deliver_due m ~now:(arrival_us - 1) note;
      ignore
        (Device.Model.submit m ~now:arrival_us ~kind:Device.Request.Demand ~page:sector
           ~words:0))
    batch;
  let rec drain () =
    match Device.Model.take_completion m with
    | Some (id, fin) ->
      note id fin;
      drain ()
    | None -> ()
  in
  drain ();
  (List.rev !served, (Device.Model.stats m).Device.Model.mean_read_latency_us)

let served_by ~sched ~sectors ~rotation_us batch =
  fst (serve_drum ~sched ~sectors ~rotation_us batch)

let span served = List.fold_left (fun m c -> max m c.finish_us) 0 served

let test_drum_single_request_alignment () =
  let serve batch = served_by ~sched:Device.Sched.Fifo ~sectors:4 ~rotation_us:4000 batch in
  (* At t=0 the head is at sector 0: a request for sector 2 starts at
     2000 and finishes at 3000. *)
  (match serve [ (0, 2) ] with
   | [ c ] ->
     check_int "sector time" 1000 (c.finish_us - c.start_us);
     check_int "start" 2000 c.start_us;
     check_int "finish" 3000 c.finish_us
   | _ -> Alcotest.fail "one completion expected");
  (* A request for the sector currently under the heads waits a full
     revolution. *)
  match serve [ (100, 0) ] with
  | [ c ] -> check_int "full revolution" 4000 c.start_us
  | _ -> Alcotest.fail "one completion expected"

let test_drum_satf_reorders () =
  (* Two requests at t=0: sector 3 and sector 1.  FIFO serves id 0
     (sector 3) first; SATF serves sector 1 first. *)
  let first sched =
    match served_by ~sched ~sectors:4 ~rotation_us:4000 [ (0, 3); (0, 1) ] with
    | c :: _ -> c.id
    | [] -> Alcotest.fail "nothing served"
  in
  check_int "fifo serves arrival order" 0 (first Device.Sched.Fifo);
  check_int "satf serves nearest sector" 1 (first Device.Sched.Satf)

let test_drum_satf_under_load_approaches_sector_time () =
  let rng = Sim.Rng.create 5 in
  let n = 500 in
  (* Saturating arrivals: everything queued at t=0. *)
  let batch = List.init n (fun _ -> (0, Sim.Rng.int rng 16)) in
  let served = served_by ~sched:Device.Sched.Satf ~sectors:16 ~rotation_us:16000 batch in
  (* SATF on a saturated queue transfers nearly back-to-back sectors. *)
  check_bool "throughput near one sector per sector-time" true
    (span served < n * 1000 * 3 / 2)

let test_drum_all_served_once () =
  let rng = Sim.Rng.create 6 in
  let batch = List.init 100 (fun _ -> (Sim.Rng.int rng 50_000, Sim.Rng.int rng 8)) in
  let served = served_by ~sched:Device.Sched.Satf ~sectors:8 ~rotation_us:8000 batch in
  check_int "every request served" 100 (List.length served);
  let ids = List.sort_uniq compare (List.map (fun c -> c.id) served) in
  check_int "served exactly once" 100 (List.length ids);
  List.iter
    (fun c -> check_bool "no service before arrival" true (c.start_us >= c.arrival_us))
    served

(* Drum properties: service is exclusive and aligned; SATF never takes
   longer than FIFO to drain a saturated batch. *)
let drum_service_property =
  QCheck.Test.make ~name:"drum service is exclusive, aligned and complete" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 40) (pair (int_bound 20_000) (int_bound 7)))
    (fun batch ->
      let served = served_by ~sched:Device.Sched.Satf ~sectors:8 ~rotation_us:8000 batch in
      List.length served = List.length batch
      && List.for_all
           (fun c ->
             c.start_us >= c.arrival_us
             && c.start_us mod 1000 = 0
             && (c.start_us / 1000) mod 8 = c.sector
             && c.finish_us = c.start_us + 1000)
           served
      (* no two services overlap *)
      && (let sorted = List.sort (fun a b -> compare a.start_us b.start_us) served in
          let rec disjoint = function
            | a :: (b :: _ as rest) -> a.finish_us <= b.start_us && disjoint rest
            | [ _ ] | [] -> true
          in
          disjoint sorted))

let drum_satf_no_slower_property =
  QCheck.Test.make ~name:"SATF drains a saturated batch no slower than FIFO" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 50) (int_bound 7))
    (fun sectors ->
      let batch = List.map (fun sector -> (0, sector)) sectors in
      let drain sched = span (served_by ~sched ~sectors:8 ~rotation_us:8000 batch) in
      drain Device.Sched.Satf <= drain Device.Sched.Fifo)

(* Differential oracle: the old drum scheduler (Ref_drum) and the
   device model fed open-loop must serve the same requests in the same
   order at the same instants, with a bit-identical mean latency.  Ids
   follow arrival order, as in X8, so both break ties the same way. *)
type drum_case = {
  sched : Device.Sched.t;
  sectors : int;
  sector_us : int;
  arrivals : (int * int) list;  (* (arrival_us, sector), non-decreasing arrivals *)
}

let drum_case_gen =
  let open QCheck.Gen in
  let* sched = oneofl [ Device.Sched.Fifo; Device.Sched.Satf ] in
  let* sectors = int_range 1 16 in
  let* sector_us = frequency [ (1, int_range 1 10); (3, int_range 11 2_000) ] in
  let* n = int_range 1 60 in
  (* Zero gaps give equal arrivals (and a first arrival at 0); few
     sectors give same-sector ties. *)
  let gap = frequency [ (2, return 0); (3, int_bound (2 * sectors * sector_us)) ] in
  let* gaps = list_repeat n gap in
  let* secs = list_repeat n (int_bound (sectors - 1)) in
  let _, arrivals = List.fold_left_map (fun t g -> (t + g, t + g)) 0 gaps in
  return { sched; sectors; sector_us; arrivals = List.combine arrivals secs }

let print_drum_case c =
  Printf.sprintf "%s, %d sectors of %d us: %s" (Device.Sched.name c.sched) c.sectors
    c.sector_us
    (String.concat "; " (List.map (fun (a, s) -> Printf.sprintf "%d@%d" s a) c.arrivals))

let drum_matches_reference_property =
  QCheck.Test.make ~name:"device model serves as the reference drum" ~count:500
    (QCheck.make ~print:print_drum_case drum_case_gen)
    (fun c ->
      let rotation_us = c.sectors * c.sector_us in
      let served, mean = serve_drum ~sched:c.sched ~sectors:c.sectors ~rotation_us c.arrivals in
      let policy =
        match c.sched with
        | Device.Sched.Satf -> Ref_drum.Shortest_access
        | Device.Sched.Fifo | Device.Sched.Priority -> Ref_drum.Fifo_order
      in
      let reference =
        Ref_drum.serve
          (Ref_drum.create ~sectors:c.sectors ~rotation_us policy)
          (List.mapi (fun id (arrival_us, sector) -> { Ref_drum.id; arrival_us; sector })
             c.arrivals)
      in
      List.map (fun s -> (s.id, s.start_us, s.finish_us)) served
      = List.map
          (fun r -> (r.Ref_drum.request.Ref_drum.id, r.Ref_drum.start_us, r.Ref_drum.finish_us))
          reference
      && Int64.bits_of_float mean = Int64.bits_of_float (Ref_drum.mean_latency_us reference))

(* --- Channel --- *)

let test_channel_moves_and_charges () =
  let clock = Sim.Clock.create () in
  let mem = Memstore.Physical.create ~name:"core" ~words:128 in
  let chan = Memstore.Channel.create clock ~word_ns:500 in
  for i = 0 to 9 do
    Memstore.Physical.write mem (20 + i) (Int64.of_int i)
  done;
  Memstore.Channel.move chan mem ~src:20 ~dst:0 ~len:10;
  check_i64 "moved" 9L (Memstore.Physical.read mem 9);
  check_int "cost 5us" 5 (Sim.Clock.now clock);
  check_int "words counted" 10 (Memstore.Channel.words_moved chan);
  check_int "time counted" 5 (Memstore.Channel.time_spent_us chan)

let test_channel_cheaper_than_processor () =
  let clock_a = Sim.Clock.create () and clock_b = Sim.Clock.create () in
  let mem = Memstore.Physical.create ~name:"core" ~words:4096 in
  let hw = Memstore.Channel.create clock_a ~word_ns:500 in
  let sw = Memstore.Channel.processor_copy clock_b in
  Memstore.Channel.move hw mem ~src:1024 ~dst:0 ~len:1024;
  Memstore.Channel.move sw mem ~src:1024 ~dst:0 ~len:1024;
  check_bool "hardware channel faster" true (Sim.Clock.now clock_a < Sim.Clock.now clock_b)

(* Property: blit then read back equals source contents. *)
let physical_blit_roundtrip =
  QCheck.Test.make ~name:"blit preserves contents" ~count:100
    QCheck.(triple (int_bound 20) (int_bound 20) (int_bound 20))
    (fun (src_off, dst_off, len) ->
      let mem = Memstore.Physical.create ~name:"m" ~words:64 in
      for i = 0 to 63 do
        Memstore.Physical.write mem i (Int64.of_int (i * 31))
      done;
      let expected = Array.init len (fun i -> Memstore.Physical.read mem (src_off + i)) in
      Memstore.Physical.blit ~src:mem ~src_off ~dst:mem ~dst_off ~len;
      Array.for_all
        (fun ok -> ok)
        (Array.init len (fun i -> Memstore.Physical.read mem (dst_off + i) = expected.(i))))

let () =
  Alcotest.run "memstore"
    [
      ( "physical",
        [
          Alcotest.test_case "read/write" `Quick test_physical_read_write;
          Alcotest.test_case "bounds" `Quick test_physical_bounds;
          Alcotest.test_case "blit overlap" `Quick test_physical_blit_overlap;
          Alcotest.test_case "fill+counters" `Quick test_physical_fill_and_counters;
          Alcotest.test_case "int words" `Quick test_physical_int_words;
          QCheck_alcotest.to_alcotest physical_blit_roundtrip;
        ] );
      ( "device",
        [
          Alcotest.test_case "costs" `Quick test_device_costs;
          Alcotest.test_case "zero floor" `Quick test_device_zero_cost_floor;
        ] );
      ( "level",
        [
          Alcotest.test_case "charges clock" `Quick test_level_charges_clock;
          Alcotest.test_case "transfer" `Quick test_level_transfer;
          Alcotest.test_case "async queues" `Quick test_level_transfer_async_queues;
        ] );
      ( "drum",
        [
          Alcotest.test_case "alignment" `Quick test_drum_single_request_alignment;
          Alcotest.test_case "satf reorders" `Quick test_drum_satf_reorders;
          Alcotest.test_case "satf throughput" `Quick test_drum_satf_under_load_approaches_sector_time;
          Alcotest.test_case "served once" `Quick test_drum_all_served_once;
          QCheck_alcotest.to_alcotest drum_service_property;
          QCheck_alcotest.to_alcotest drum_satf_no_slower_property;
          QCheck_alcotest.to_alcotest drum_matches_reference_property;
        ] );
      ( "channel",
        [
          Alcotest.test_case "move+charge" `Quick test_channel_moves_and_charges;
          Alcotest.test_case "cheaper than processor" `Quick test_channel_cheaper_than_processor;
        ] );
    ]

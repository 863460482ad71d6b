type row = {
  policy : string;
  load : float;
  mean_latency_us : float;
  revolutions_per_page : float;
}

let sectors = 16

let rotation_us = 16_000  (* ~ATLAS-class drum *)

(* Page requests [(arrival_us, sector)] in arrival order, with
   exponential interarrivals and uniform sectors. *)
let request_stream rng ~count ~mean_gap_us =
  let now = ref 0. in
  List.init count (fun _ ->
      now := !now +. Sim.Rng.exponential rng mean_gap_us;
      (int_of_float !now, Sim.Rng.int rng sectors))

(* Serve the open-loop stream on a one-channel drum in the model's
   event-loop style: everything the device would dispatch before a
   request arrives is dispatched before that request is submitted, so
   a scheduling decision sees exactly the requests that have arrived.
   The page number is the sector. *)
let mean_latency_us ~sched stream =
  let m =
    Device.Model.create
      (Device.Model.config ~sched (Device.Geometry.drum ~sectors ~rotation_us ()))
  in
  let ignore_completion _ _ = () in
  List.iter
    (fun (arrival_us, sector) ->
      Device.Model.deliver_due m ~now:(arrival_us - 1) ignore_completion;
      ignore
        (Device.Model.submit m ~now:arrival_us ~kind:Device.Request.Demand ~page:sector
           ~words:0))
    stream;
  while Option.is_some (Device.Model.take_completion m) do
    ()
  done;
  (Device.Model.stats m).Device.Model.mean_read_latency_us

let measure ?(quick = false) ?seed () =
  let count = if quick then 400 else 4_000 in
  (* Load = expected requests arriving per revolution. *)
  let loads = [ 0.5; 1.0; 1.5; 2.; 6.; 12. ] in
  List.concat_map
    (fun load ->
      let mean_gap_us = float_of_int rotation_us /. load in
      List.map
        (fun (name, sched) ->
          let rng = Sim.Rng.derive ?override:seed 777 in
          let latency = mean_latency_us ~sched (request_stream rng ~count ~mean_gap_us) in
          {
            policy = name;
            load;
            mean_latency_us = latency;
            revolutions_per_page = latency /. float_of_int rotation_us;
          })
        [ ("arrival order (FIFO)", Device.Sched.Fifo);
          ("shortest access first", Device.Sched.Satf) ])
    loads

let run ?quick ?obs:_ ?seed () =
  let rows = measure ?quick ?seed () in
  print_endline "== X8 (extension): scheduling the paging drum ==";
  Printf.printf "(%d sectors, %d us per revolution; exponential arrivals)\n\n" sectors
    rotation_us;
  Metrics.Table.print
    ~headers:[ "load (req/rev)"; "policy"; "mean fetch latency (us)"; "revolutions/page" ]
    (List.map
       (fun r ->
         [
           Metrics.Table.fmt_float ~decimals:1 r.load;
           r.policy;
           Metrics.Table.fmt_float ~decimals:0 r.mean_latency_us;
           Metrics.Table.fmt_float r.revolutions_per_page;
         ])
       rows);
  print_endline
    "(under load, arrival-order service queues for whole revolutions while\n\
    \ shortest-access-first picks sectors as they arrive at the heads --\n\
    \ the fetch-time term of F3/C7 is a scheduling outcome, not a constant)\n"

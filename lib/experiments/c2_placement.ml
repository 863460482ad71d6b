type row = {
  policy : string;
  mix : string;
  external_frag : float;
  holes : int;
  mean_search : float;
  failures : int;
  largest_free : int;
}

let mixes ~steps =
  [
    ( "small-skewed",
      fun rng ->
        Workload.Alloc_stream.live_stream rng ~steps
          ~size:(Workload.Alloc_stream.Geometric { mean = 40.; min_size = 1 })
          ~target_live:400 );
    ( "bimodal 16/2048",
      fun rng ->
        Workload.Alloc_stream.live_stream rng ~steps
          ~size:(Workload.Alloc_stream.Bimodal { small = 16; large = 2048; large_fraction = 0.05 })
          ~target_live:400 );
  ]

let serve ?(obs = Obs.Sink.null) policy events =
  let words = 1 lsl 16 in
  let mem = Memstore.Physical.create ~name:"core" ~words in
  let a = Freelist.Allocator.create ~obs mem ~base:0 ~len:words ~policy in
  let table = Hashtbl.create 512 in
  Obs.Prof.span "c2.replay" (fun () ->
      List.iter
        (function
          | Workload.Alloc_stream.Alloc { id; size } ->
            (match Freelist.Allocator.alloc a size with
             | Some addr -> Hashtbl.replace table id addr
             | None -> ())
          | Workload.Alloc_stream.Free { id } ->
            (match Hashtbl.find_opt table id with
             | Some addr ->
               Freelist.Allocator.free a addr;
               Hashtbl.remove table id
             | None -> ()))
        events);
  a

let measure ?(quick = false) ?(obs = Obs.Sink.null) ?seed () =
  let steps = if quick then 2_000 else 25_000 in
  (* A clockless allocator stamps events with its operation counter
     (at most one per stream event); shifting each policy's run by the
     events already served keeps the spliced stream monotone; segment
     boundaries mark where each policy's fresh store begins. *)
  let t_base = ref 0 in
  let runs = ref 0 in
  let seg ~config =
    let s = Obs.Sink.segment ?seed ~config ~run:!runs ~offset:!t_base obs in
    incr runs;
    s
  in
  List.concat_map
    (fun (mix_name, make_events) ->
      List.map
        (fun policy ->
          (* Same stream for every policy: same seed. *)
          let events = make_events (Sim.Rng.derive ?override:seed 77) in
          let a =
            serve
              ~obs:
                (seg
                   ~config:
                     (Printf.sprintf "c2 mix=%s policy=%s" mix_name
                        (Freelist.Policy.to_string policy)))
              policy events
          in
          t_base := !t_base + List.length events;
          Obs.Prof.span "c2.census" @@ fun () ->
          let sizes = Freelist.Allocator.free_block_sizes a in
          {
            policy = Freelist.Policy.to_string policy;
            mix = mix_name;
            external_frag = Metrics.Fragmentation.external_of_free_blocks sizes;
            holes = List.length sizes;
            mean_search = Metrics.Stats.mean (Freelist.Allocator.search_stats a);
            failures = Freelist.Allocator.failures a;
            largest_free = Freelist.Allocator.largest_free a;
          })
        Freelist.Policy.all_standard)
    (mixes ~steps)

let run ?quick ?obs ?seed () =
  let rows = measure ?quick ?obs ?seed () in
  print_endline "== C2: placement strategies (variable unit of allocation) ==";
  print_endline "(same request stream to every policy; fixed 64K-word store)\n";
  Metrics.Table.print
    ~headers:[ "mix"; "policy"; "ext frag"; "holes"; "mean search"; "failures"; "largest hole" ]
    (List.map
       (fun r ->
         [
           r.mix;
           r.policy;
           Metrics.Table.fmt_pct r.external_frag;
           string_of_int r.holes;
           Metrics.Table.fmt_float r.mean_search;
           string_of_int r.failures;
           string_of_int r.largest_free;
         ])
       rows);
  print_newline ()

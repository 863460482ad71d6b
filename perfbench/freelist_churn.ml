(* Workload freelist_churn: x10_fss/c2's engine.  A steady-state
   Workload.Alloc_stream.live_stream (geometric sizes of mean 64 words,
   50 % occupancy, 12 events of churn per object) replayed through
   Freelist.Allocator.alloc/free, over stores of 1 K to 1 M words under
   best, first and next fit.  Small stores load the search, large ones
   the address-ordered free path. *)

open Common

let name = "freelist_churn"

let policies = Freelist.Policy.[ Best_fit; First_fit; Next_fit ]

(* (store words, streams drawn at that size): more streams for small
   stores, so each size carries a comparable share of the cells. *)
let stores = function
  | Full ->
    [ (1_024, 10); (4_096, 10); (16_384, 8); (65_536, 4); (262_144, 2); (1_048_576, 1) ]
  | Tiny -> [ (1_024, 2); (16_384, 1) ]

(* Stores up to this many words are "small", larger ones "large". *)
let small_store = 16_384

let mean_size = 64.

let occupancy = 0.5

let churn = 12

(* A stream flattened for replay: event [i] allocates [sizes.(i)] words
   for object [ids.(i)], or frees it when [sizes.(i) = 0]. *)
type stream = { words : int; rep : int; ids : int array; sizes : int array; objects : int }

(* --- per-layer accumulators (traced executions) --- *)

let alloc_ns = [| Ints.create (); Ints.create () |] (* small, large store *)

let free_ns = [| Ints.create (); Ints.create () |]

let search_nodes = ref 0.

let allocs = ref 0

let refused = ref 0

let reads = ref 0

let writes = ref 0

let ops = ref 0

let gen_ns = ref 0

let gen_events = ref 0

let stream_of ~seed ~store_index ~words ~rep =
  let rng = Sim.Rng.derive ~override:seed (1010 + (store_index * 131) + (rep * 7919)) in
  let live = max 4 (int_of_float (float_of_int words *. occupancy /. mean_size)) in
  let events =
    Spans.span "workload.alloc_stream.gen" (fun () ->
        Workload.Alloc_stream.live_stream rng ~steps:(churn * live)
          ~size:(Workload.Alloc_stream.Geometric { mean = mean_size; min_size = 1 })
          ~target_live:live)
  in
  let n = List.length events in
  if !Spans.on then begin
    gen_ns := !gen_ns + Spans.last_ns ();
    gen_events := !gen_events + n
  end;
  let ids = Array.make n 0 and sizes = Array.make n 0 in
  List.iteri
    (fun i -> function
      | Workload.Alloc_stream.Alloc { id; size } ->
        ids.(i) <- id;
        sizes.(i) <- size
      | Workload.Alloc_stream.Free { id } -> ids.(i) <- id)
    events;
  { words; rep; ids; sizes; objects = Array.fold_left max (-1) ids + 1 }

(* Replay [s] into [a]; [addr.(id)] holds the payload address of each
   live object, -1 otherwise.  Returns the number of refused allocs. *)
let replay a s addr =
  let refused = ref 0 in
  for i = 0 to Array.length s.ids - 1 do
    let id = s.ids.(i) and size = s.sizes.(i) in
    if size > 0 then begin
      match Freelist.Allocator.alloc a size with
      | Some p -> addr.(id) <- p
      | None -> incr refused
    end
    else if addr.(id) >= 0 then begin
      Freelist.Allocator.free a addr.(id);
      addr.(id) <- -1
    end
  done;
  !refused

(* [replay] with a span around every call into the allocator. *)
let replay_traced a s addr =
  let k = if s.words <= small_store then 0 else 1 in
  let refused = ref 0 in
  for i = 0 to Array.length s.ids - 1 do
    let id = s.ids.(i) and size = s.sizes.(i) in
    if size > 0 then begin
      let r = Spans.span ~prof:false "freelist.allocator.alloc" (fun () -> Freelist.Allocator.alloc a size) in
      Ints.add alloc_ns.(k) (Spans.last_ns ());
      match r with Some p -> addr.(id) <- p | None -> incr refused
    end
    else if addr.(id) >= 0 then begin
      Spans.span ~prof:false "freelist.allocator.free" (fun () -> Freelist.Allocator.free a addr.(id));
      Ints.add free_ns.(k) (Spans.last_ns ());
      addr.(id) <- -1
    end
  done;
  !refused

let cell ~stream:s ~policy =
  let id = Printf.sprintf "w%d/r%d/%s" s.words s.rep (Freelist.Policy.to_string policy) in
  let exec ~gc =
    let addr = Array.make s.objects (-1) in
    let (mem, a, nrefused), ns, words =
      engine ~gc (fun () ->
          Spans.cell id (fun () ->
              let mem =
                Spans.span "memstore.physical.create" (fun () ->
                    Memstore.Physical.create ~name:"core" ~words:s.words)
              in
              let a =
                Spans.span "freelist.allocator.build" (fun () ->
                    Freelist.Allocator.build mem
                      { Freelist.Allocator.s_base = 0; s_len = s.words; s_policy = policy })
              in
              let nrefused = (if !Spans.on then replay_traced else replay) a s addr in
              (mem, a, nrefused)))
    in
    let n = Array.length s.ids in
    let search = Freelist.Allocator.search_stats a in
    if !Spans.on then begin
      search_nodes := !search_nodes +. Metrics.Stats.total search;
      allocs := !allocs + Metrics.Stats.count search;
      refused := !refused + nrefused;
      reads := !reads + Memstore.Physical.reads mem;
      writes := !writes + Memstore.Physical.writes mem;
      ops := !ops + n
    end;
    let live_sum =
      Array.fold_left
        (fun acc p -> if p >= 0 then acc + Freelist.Allocator.payload_size a p else acc)
        0 addr
    in
    let live = Freelist.Allocator.live_words a in
    let errors =
      (match Freelist.Allocator.validate a with
       | () -> []
       | exception Failure msg -> [ "validate: " ^ msg ])
      @ List.filter_map
          (fun (ok, msg) -> if ok then None else Some msg)
          [
            ( live = live_sum,
              Printf.sprintf "live_words %d <> sum of payload_size %d" live live_sum );
            ( Freelist.Allocator.failures a = nrefused,
              Printf.sprintf "failures %d <> refused allocs %d"
                (Freelist.Allocator.failures a) nrefused );
          ]
    in
    let sizes = Freelist.Allocator.free_block_sizes a in
    let stats =
      Printf.sprintf
        "live_words=%d live_blocks=%d free_words=%d failures=%d holes=%d largest=%d \
         search=%d/%h/%h sizes=%s"
        live (Freelist.Allocator.live_blocks a) (Freelist.Allocator.free_words a)
        (Freelist.Allocator.failures a) (List.length sizes)
        (Freelist.Allocator.largest_free a) (Metrics.Stats.count search)
        (Metrics.Stats.total search) (Metrics.Stats.max search)
        (String.concat "," (List.map string_of_int sizes))
    in
    { ops = n; ns; gc_words = words; stats; errors; oracle = no_oracle }
  in
  { id; exec }

let setup ~size ~seed =
  List.concat
    (List.mapi
       (fun store_index (words, reps) ->
         List.concat_map
           (fun rep ->
             let stream = stream_of ~seed ~store_index ~words ~rep in
             List.map (fun policy -> cell ~stream ~policy) policies)
           (List.init reps Fun.id))
       (stores size))
  |> Array.of_list

let layer_metrics () =
  let f = float_of_int in
  let pct samples p = f (percentile (Ints.to_array samples) ~zero:0 p) in
  let split store k =
    [
      (Printf.sprintf "freelist.allocator.%s.alloc_ns_p50" store, pct alloc_ns.(k) 50., "ns");
      (Printf.sprintf "freelist.allocator.%s.alloc_ns_p99" store, pct alloc_ns.(k) 99., "ns");
      (Printf.sprintf "freelist.allocator.%s.free_ns_p50" store, pct free_ns.(k) 50., "ns");
      (Printf.sprintf "freelist.allocator.%s.free_ns_p99" store, pct free_ns.(k) 99., "ns");
    ]
  in
  [ ("workload.alloc_stream.gen_ns_per_event", ratio (f !gen_ns) (f !gen_events), "ns/event") ]
  @ split "small_store" 0 @ split "large_store" 1
  @ [
      ("freelist.allocator.search_nodes_per_alloc", ratio !search_nodes (f !allocs), "nodes/alloc");
      ("freelist.allocator.satisfied_share", 1. -. ratio (f !refused) (f !allocs), "share");
      ("memstore.physical.reads_per_op", ratio (f !reads) (f !ops), "reads/op");
      ("memstore.physical.writes_per_op", ratio (f !writes) (f !ops), "writes/op");
    ]

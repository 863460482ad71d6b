(* Workload paging_sweep: C3's engine.  Every replacement spec (the
   practical ones plus OPT) x frame counts 8..256 x trace shapes (loop,
   working-set phases, Zipf) over extents of 64 and 1024 pages; each
   cell is one Paging.Fault_sim.run with the null sink.  A frame range
   this wide separates per-reference from per-eviction cost. *)

open Common

let name = "paging_sweep"

let specs =
  Paging.Spec.[ Fifo; Lru; Clock; Random; Nru; Lfu; Atlas; M44; Working_set 64; Opt ]

let spec_key = function
  | Paging.Spec.Fifo -> "fifo"
  | Lru -> "lru"
  | Clock -> "clock"
  | Random -> "random"
  | Nru -> "nru"
  | Lfu -> "lfu"
  | Atlas -> "atlas"
  | M44 -> "m44"
  | Working_set tau -> Printf.sprintf "ws%d" tau
  | Opt -> "opt"

let frame_counts = function Full -> [ 8; 32; 64; 256 ] | Tiny -> [ 8; 64 ]

(* (extent, references per trace) *)
let extents = function Full -> [ (64, 6_000); (1024, 1_000) ] | Tiny -> [ (64, 400) ]

(* Frame counts up to this are "small", from 64 up "large". *)
let small_frames = 32

(* --- per-layer accumulators --- *)

let n_specs = List.length specs

let spec_ns = Array.make n_specs 0 (* traced: instantiate + run *)

let spec_refs = Array.make n_specs 0

let spec_words = Array.make n_specs 0. (* untraced, allocation measured *)

let spec_words_refs = Array.make n_specs 0

let run_ns = [| 0; 0 |] (* small, large frames *)

let run_refs = [| 0; 0 |]

let faults = ref 0

let evictions = ref 0

let refs = ref 0

let gen_ns = ref 0

let gen_refs = ref 0

let gen f =
  let t = Spans.span "workload.trace.gen" f in
  if !Spans.on then begin
    gen_ns := !gen_ns + Spans.last_ns ();
    gen_refs := !gen_refs + Array.length t
  end;
  t

let distinct trace =
  let seen = Hashtbl.create 64 in
  Array.iter (fun p -> Hashtbl.replace seen p ()) trace;
  Hashtbl.length seen

let oracle_of = function
  | Paging.Spec.Fifo -> Some Oracle.fifo
  | Lru -> Some Oracle.lru
  | Opt -> Some Oracle.opt
  | _ -> None

let cell ~seed ~index ~spec_index ~spec ~frames ~label ~trace ~pages =
  let id = Printf.sprintf "%s/%s/f%d" label (spec_key spec) frames in
  let exec ~gc =
    let r, ns, words =
      engine ~gc (fun () ->
          Spans.cell id (fun () ->
              let policy =
                Spans.span "paging.spec.instantiate" (fun () ->
                    Paging.Spec.instantiate spec
                      ~rng:(Sim.Rng.derive ~override:seed (9 + index))
                      ~trace:(Some trace))
              in
              let inst_ns = Spans.last_ns () in
              let r =
                Spans.span "paging.fault_sim.run" (fun () ->
                    Paging.Fault_sim.run ~frames ~policy trace)
              in
              if !Spans.on then begin
                let k = if frames <= small_frames then 0 else 1 in
                run_ns.(k) <- run_ns.(k) + Spans.last_ns ();
                run_refs.(k) <- run_refs.(k) + r.Paging.Fault_sim.refs;
                spec_ns.(spec_index) <- spec_ns.(spec_index) + inst_ns + Spans.last_ns ();
                spec_refs.(spec_index) <- spec_refs.(spec_index) + r.Paging.Fault_sim.refs;
                faults := !faults + r.Paging.Fault_sim.faults;
                evictions := !evictions + r.Paging.Fault_sim.evictions;
                refs := !refs + r.Paging.Fault_sim.refs
              end;
              r))
    in
    let { Paging.Fault_sim.refs = n; faults = f; cold; evictions = e } = r in
    if gc then begin
      spec_words.(spec_index) <- spec_words.(spec_index) +. words;
      spec_words_refs.(spec_index) <- spec_words_refs.(spec_index) + n
    end;
    let errors =
      List.filter_map
        (fun (ok, msg) -> if ok then None else Some msg)
        [
          (n = Array.length trace, Printf.sprintf "refs %d <> trace length" n);
          (cold <= f && f <= n, Printf.sprintf "not cold %d <= faults %d <= refs %d" cold f n);
          (cold = pages, Printf.sprintf "cold %d <> distinct pages %d" cold pages);
          ( e = max 0 (f - frames),
            Printf.sprintf "evictions %d <> max 0 (faults %d - frames %d)" e f frames );
        ]
    in
    let oracle () =
      match oracle_of spec with
      | None -> []
      | Some reference ->
        let o = reference ~frames trace in
        if o.Oracle.faults = f && o.Oracle.cold = cold && o.Oracle.evictions = e then []
        else
          [
            Printf.sprintf "oracle %s: faults/cold/evictions %d/%d/%d, engine %d/%d/%d"
              (spec_key spec) o.Oracle.faults o.Oracle.cold o.Oracle.evictions f cold e;
          ]
    in
    {
      ops = n;
      ns;
      gc_words = words;
      stats = Printf.sprintf "refs=%d faults=%d cold=%d evictions=%d" n f cold e;
      errors;
      oracle;
    }
  in
  { id; exec }

let setup ~size ~seed =
  let traces =
    List.concat
      (List.mapi
         (fun xi (extent, length) ->
           let rng = Sim.Rng.derive ~override:seed (555 + xi) in
           let label s = Printf.sprintf "%s-e%d" s extent in
           let loop =
             gen (fun () ->
                 Workload.Trace.loop ~length ~extent ~working_set:(extent * 5 / 8))
           in
           let phases =
             gen (fun () ->
                 Workload.Trace.working_set_phases rng ~length ~extent
                   ~set_size:(extent * 3 / 16) ~phase_length:(length / 10) ~locality:0.9)
           in
           let zipf = gen (fun () -> Workload.Trace.zipf rng ~length ~extent ~skew:1.0) in
           [ (label "loop", loop); (label "phases", phases); (label "zipf", zipf) ])
         (extents size))
  in
  let index = ref 0 in
  List.concat_map
    (fun (label, trace) ->
      let pages = distinct trace in
      List.concat
        (List.mapi
           (fun spec_index spec ->
             List.map
               (fun frames ->
                 incr index;
                 cell ~seed ~index:!index ~spec_index ~spec ~frames ~label ~trace ~pages)
               (frame_counts size))
           specs))
    traces
  |> Array.of_list

let layer_metrics () =
  let f = float_of_int in
  [ ("workload.trace.gen_ns_per_ref", ratio (f !gen_ns) (f !gen_refs), "ns/ref") ]
  @ List.concat
      (List.mapi
         (fun i spec ->
           let k = spec_key spec in
           [
             ( Printf.sprintf "paging.replacement.%s.ns_per_ref" k,
               ratio (f spec_ns.(i)) (f spec_refs.(i)),
               "ns/ref" );
             ( Printf.sprintf "paging.replacement.%s.gc_words_per_ref" k,
               ratio spec_words.(i) (f spec_words_refs.(i)),
               "words/ref" );
           ])
         specs)
  @ [
      ( "paging.fault_sim.small_frames.ns_per_ref",
        ratio (f run_ns.(0)) (f run_refs.(0)),
        "ns/ref" );
      ( "paging.fault_sim.large_frames.ns_per_ref",
        ratio (f run_ns.(1)) (f run_refs.(1)),
        "ns/ref" );
      ("paging.fault_sim.evictions_per_ref", ratio (f !evictions) (f !refs), "1/ref");
      ("paging.fault_sim.fault_rate", ratio (f !faults) (f !refs), "1/ref");
    ]

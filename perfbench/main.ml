(* The benchmark harness.

     main.exe --workload W --seed N --seconds S --trace 0|1
              [--size full|tiny] [--digests FILE] [--write-digests FILE]
              [--out-dir DIR]

   One process, one domain, closed loop: cells run one after another.
   For workload W it
   1. generates the seeded inputs (repeated at least 5 times and for at
      least 0.5 s; setup_s is the median);
   2. runs every cell once untraced, measuring allocation and running
      every check: the cell's invariants, the reference oracles, and,
      for the default seed, the committed digest of its simulated
      statistics;
   3. with --trace 0, runs whole passes over the cells, untraced, until
      S seconds have gone, checking every execution's digest against the
      first, and prints the end-to-end metrics;
   4. with --trace 1, runs traced passes of W for S/4 seconds, then of
      each other workload (after its own steps 1-2) one traced pass,
      prints every workload's per-layer metrics and writes W's spans
      and Obs.Prof folded stacks to DIR.
   The last line of stdout is one JSON object: correct, attempted,
   failed, metrics.  Exits 1 if any cell execution failed a check. *)

open Common

type workload = {
  name : string;
  setup : size:size -> seed:int -> cell array;
  layers : string list;  (** the layers its traced pass reports self time for *)
  layer_metrics : unit -> metric list;
}

(* A workload's layers are those its cells call into; "bench" is the
   harness itself.  No span covers the obs sink: one per event would cost
   as much as the event.  The sink's cost is measured by difference
   (obs.sink.ns_per_event) and counts under dsas here. *)
let workloads =
  [
    {
      name = Paging_sweep.name;
      setup = Paging_sweep.setup;
      layers = [ "bench"; "workload"; "paging" ];
      layer_metrics = Paging_sweep.layer_metrics;
    };
    {
      name = Freelist_churn.name;
      setup = Freelist_churn.setup;
      layers = [ "bench"; "workload"; "memstore"; "freelist" ];
      layer_metrics = Freelist_churn.layer_metrics;
    };
    {
      name = Multiprog_device.name;
      setup = Multiprog_device.setup;
      layers = [ "bench"; "workload"; "paging"; "dsas"; "device" ];
      layer_metrics = Multiprog_device.layer_metrics;
    };
  ]

(* The seed whose digests are committed beside the benchmark. *)
let default_seed = 1

let usage () =
  prerr_endline
    "usage: main.exe --workload {paging_sweep|freelist_churn|multiprog_device} --seed N \
     --seconds S --trace {0|1} [--size full|tiny] [--digests FILE] [--write-digests FILE] \
     [--out-dir DIR]";
  exit 2

type args = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  size : size;
  digests : string option;
  write_digests : string option;
  out_dir : string;
}

let parse_args () =
  let known =
    [ "workload"; "seed"; "seconds"; "trace"; "size"; "digests"; "write-digests"; "out-dir" ]
  in
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | key :: value :: rest
      when String.starts_with ~prefix:"--" key
           && List.mem (String.sub key 2 (String.length key - 2)) known ->
      Hashtbl.replace tbl (String.sub key 2 (String.length key - 2)) value;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  (match Array.to_list Sys.argv with _ :: args -> go args | [] -> usage ());
  let get k = Hashtbl.find_opt tbl k in
  let int_of k default =
    match get k with
    | None -> default
    | Some v -> (match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  let workload =
    match get "workload" with
    | Some w -> (
      match List.find_opt (fun x -> x.name = w) workloads with Some x -> x | None -> usage ())
    | None -> usage ()
  in
  let seconds = int_of "seconds" 10 in
  let trace = int_of "trace" 0 in
  let size =
    match Option.map size_of_string (get "size") with
    | None -> Full
    | Some (Some s) -> s
    | Some None -> usage ()
  in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  {
    workload;
    seed = int_of "seed" default_seed;
    seconds = float_of_int seconds;
    trace = trace = 1;
    size;
    digests = get "digests";
    write_digests = get "write-digests";
    out_dir = Option.value ~default:"perfbench/_out" (get "out-dir");
  }

(* Committed digests: "<size> <workload> <cell> <md5>" per line. *)
let load_digests path =
  let tbl = Hashtbl.create 512 in
  In_channel.with_open_text path (fun ic ->
      List.iter
        (fun line ->
          match String.split_on_char ' ' line with
          | [ size; w; cell; d ] -> Hashtbl.replace tbl (size, w, cell) d
          | _ -> ())
        (In_channel.input_lines ic));
  tbl

(* --- one workload's cells, checked --- *)

type run = {
  w : workload;
  cells : cell array;
  first : string array;  (** digest of each cell's first execution *)
  ops : int array;  (** simulated operations of each cell *)
  samples : int list array;  (** host ns of each untraced timed execution *)
  mutable gc_words : float;
  mutable gc_ops : int;
  mutable first_ns : int;  (** engine time of the checked pass *)
}

let attempted = ref 0

let failed = ref 0

let report_failure w c errors =
  if !failed <= 20 then
    List.iter (fun e -> Printf.eprintf "FAILED %s %s: %s\n%!" w.name c.id e) errors

let check args committed r i (o : outcome) =
  let c = r.cells.(i) in
  let digest = Digest.to_hex (Digest.string o.stats) in
  let first = r.first.(i) = "" in
  let digest_errors =
    if first then begin
      r.first.(i) <- digest;
      match committed with
      | None -> []
      | Some tbl -> (
        match Hashtbl.find_opt tbl (size_name args.size, r.w.name, c.id) with
        | Some d when d = digest -> []
        | Some d -> [ Printf.sprintf "digest %s <> committed %s (%s)" digest d o.stats ]
        | None -> [ "no committed digest for this cell" ])
    end
    else if digest <> r.first.(i) then
      [ Printf.sprintf "digest %s <> first execution's %s (%s)" digest r.first.(i) o.stats ]
    else []
  in
  let errors = o.errors @ digest_errors @ if first then o.oracle () else [] in
  incr attempted;
  if errors <> [] then begin
    incr failed;
    report_failure r.w c errors
  end

(* Every execution starts from a collected heap, so no cell pays for
   the garbage of the one before it, and the heap's peak does not depend
   on how many executions a run fits in. *)
let exec c ~gc =
  Gc.full_major ();
  c.exec ~gc

(* Step 1: setups until at least 5 and 0.5 s; the median and the last
   cell array. *)
let timed_setup args w =
  let rec go times =
    let t0 = now_ns () in
    let cells = w.setup ~size:args.size ~seed:args.seed in
    let times = float_of_int (now_ns () - t0) /. 1e9 :: times in
    Gc.full_major ();
    if List.length times >= 5 && List.fold_left ( +. ) 0. times >= 0.5 then
      (percentile (Array.of_list times) ~zero:0. 50., cells)
    else go times
  in
  go []

(* Step 2. *)
let first_pass args committed w cells =
  let n = Array.length cells in
  let r =
    {
      w;
      cells;
      first = Array.make n "";
      ops = Array.make n 0;
      samples = Array.make n [];
      gc_words = 0.;
      gc_ops = 0;
      first_ns = 0;
    }
  in
  Array.iteri
    (fun i c ->
      let o = exec c ~gc:true in
      r.ops.(i) <- o.ops;
      r.gc_words <- r.gc_words +. o.gc_words;
      r.gc_ops <- r.gc_ops + o.ops;
      r.first_ns <- r.first_ns + o.ns;
      check args committed r i o)
    cells;
  r

(* Whole passes until [seconds] have gone; returns (passes, ops, ns)
   where ns is the engine time summed over executions. *)
let passes args committed r ~cells ~seconds ~record =
  let t_end = now_ns () + int_of_float (seconds *. 1e9) in
  let rec go passes ops ns =
    let ops = ref ops and ns = ref ns in
    Array.iteri
      (fun i c ->
        let o = exec c ~gc:false in
        check args committed r i o;
        if record then r.samples.(i) <- o.ns :: r.samples.(i);
        ops := !ops + o.ops;
        ns := !ns + o.ns)
      cells;
    if now_ns () >= t_end then (passes + 1, !ops, !ns) else go (passes + 1) !ops !ns
  in
  go 0 0 0

let per_s ops ns = ratio (float_of_int ops) (float_of_int ns /. 1e9)

(* Step 3: the end-to-end metrics of the untraced timed passes. *)
let end_to_end ~setup_s r ~passes:(_, ops, ns) =
  let per_cell =
    Array.mapi
      (fun i samples ->
        float_of_int (List.fold_left ( + ) 0 samples)
        /. float_of_int (List.length samples * max 1 r.ops.(i)))
      r.samples
  in
  let heap = (Gc.quick_stat ()).Gc.top_heap_words in
  [
    ("setup_s", setup_s, "s");
    ("ops_per_s", per_s ops ns, "ops/s");
    ("ns_per_op_p50", percentile per_cell ~zero:0. 50., "ns/op");
    ("ns_per_op_p90", percentile per_cell ~zero:0. 90., "ns/op");
    ("gc_words_per_op", ratio r.gc_words (float_of_int r.gc_ops), "words/op");
    ("peak_heap_mb", float_of_int (heap * (Sys.word_size / 8)) /. 1e6, "MB");
  ]

(* Layer of a span name: the prefix before the first dot, with the
   in-library Obs.Prof spans mapped to their libraries. *)
let layer_of span =
  match String.split_on_char '.' span with
  | "multiprog" :: _ -> "dsas"
  | "demand" :: _ -> "paging"
  | l :: _ -> l
  | [] -> span

(* Self time per layer of the recorded spans, per operation: the
   recorder's own self times, with the in-library Obs.Prof spans moved
   from the layer of the recorded span they ran under to their own. *)
let self_time_metrics x ~ops =
  let self = Spans.self_times () in
  let tbl = Hashtbl.create 8 in
  let add layer v = Hashtbl.replace tbl layer (v + Option.value ~default:0 (Hashtbl.find_opt tbl layer)) in
  for i = 0 to Spans.count () - 1 do
    add (layer_of (Spans.name i)) self.(i)
  done;
  List.iter
    (fun (row : Obs.Prof.row) ->
      match List.rev (String.split_on_char ';' row.Obs.Prof.path) with
      | last :: outer when not (Spans.is_recorded last) ->
        Option.iter
          (fun owner -> add (layer_of owner) (-row.Obs.Prof.self_ns))
          (List.find_opt Spans.is_recorded outer);
        add (layer_of last) row.Obs.Prof.self_ns
      | _ -> ())
    (Obs.Prof.rows ());
  List.map
    (fun layer ->
      ( Printf.sprintf "trace.%s.self_ns_per_op.%s" x.name layer,
        ratio (float_of_int (Option.value ~default:0 (Hashtbl.find_opt tbl layer))) (float_of_int ops),
        "ns/op" ))
    x.layers

let print_metric (name, value, unit) = Printf.printf "metric %-52s %16.6f %s\n" name value unit

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, value, unit) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number value) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed body

let write_digests args path r =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Array.iteri
    (fun i c -> Printf.fprintf oc "%s %s %s %s\n" (size_name args.size) r.w.name c.id r.first.(i))
    r.cells;
  close_out oc

let () =
  let args = parse_args () in
  let committed =
    match args.digests with
    | Some path when args.seed = default_seed && Sys.file_exists path -> Some (load_digests path)
    | Some path when args.seed = default_seed ->
      Printf.eprintf "digest file %s not found\n" path;
      exit 2
    | Some _ | None -> None
  in
  let w = args.workload in
  let setup_s, cells = timed_setup args w in
  let r = first_pass args committed w cells in
  Option.iter (fun path -> write_digests args path r) args.write_digests;
  let metrics =
    if not args.trace then begin
      let ((npasses, _, _) as untraced) =
        passes args committed r ~cells ~seconds:args.seconds ~record:true
      in
      Printf.printf "# %s seed=%d size=%s cells=%d timed_passes=%d executions_checked=%d\n"
        w.name args.seed (size_name args.size) (Array.length cells) npasses !attempted;
      let m = end_to_end ~setup_s r ~passes:untraced in
      List.iter print_metric m;
      Printf.printf "metric %-52s %16.6f share (cells failing a check / cells run)\n"
        "failed_cell_share" (ratio (float_of_int !failed) (float_of_int !attempted));
      m
    end
    else begin
      (try Sys.mkdir args.out_dir 0o755 with Sys_error _ -> ());
      (* Each workload gets a traced setup and traced passes, S/4 seconds
         of them for W and one for the others.  Its checked pass is the
         untraced reference for the tracing overhead. *)
      let traced x =
        let r = if x == w then r else first_pass args committed x (x.setup ~size:args.size ~seed:args.seed) in
        Obs.Prof.reset ();
        Spans.reset ();
        Spans.enable ();
        let cells = x.setup ~size:args.size ~seed:args.seed in
        let seconds = if x == w then args.seconds /. 4. else 0. in
        let _, ops, ns = passes args committed r ~cells ~seconds ~record:false in
        Spans.disable ();
        if x == w then begin
          let file ext = Filename.concat args.out_dir (Printf.sprintf "%s.%s" w.name ext) in
          Spans.write
            ~run:(Printf.sprintf "workload=%s seed=%d size=%s" w.name args.seed (size_name args.size))
            (file "spans.tsv");
          Out_channel.with_open_text (file "prof.folded") (fun oc ->
              output_string oc (Obs.Prof.folded ()))
        end;
        (( Printf.sprintf "trace.%s.overhead_share" x.name,
           ratio (per_s r.gc_ops r.first_ns) (per_s ops ns) -. 1.,
           "share" )
        :: self_time_metrics x ~ops)
        @ x.layer_metrics ()
      in
      let m = List.concat_map traced workloads in
      Printf.printf "# %s seed=%d size=%s traced, executions_checked=%d\n" w.name args.seed
        (size_name args.size) !attempted;
      List.iter print_metric m;
      m
    end
  in
  print_result metrics;
  if !failed > 0 then exit 1

(* The on-disk campaign store.

   Layout, all under one campaign directory:

     spec.json            the sweep spec, verbatim
     manifest.json        identity: name, cell, config hash, git version
     cells.jsonl          append-only status log, one line per attempt
     cells/<id>.metrics.json   one dsas-metrics/1 artifact per done cell
     cells/<id>.trace.jsonl    sampled trace, when the spec asks for one
     cells/<id>.error.txt      diagnostic from a failed attempt

   The status log is the checkpoint: the last line per cell id wins, so
   a killed campaign resumes by replaying the log and re-running only
   cells that never reached "done".  Metrics files are written to a
   temporary name and renamed, so a crash mid-write never leaves a
   half-artifact that parses. *)

type failure = {
  f_msg : string;
  f_timed_out : bool;  (* the attempt was killed at the wall-clock limit *)
  f_retries : int;  (* failed attempts before this one *)
}

type status =
  | Pending
  | Done
  | Failed of failure

let failed ?(timed_out = false) ?(retries = 0) msg =
  Failed { f_msg = msg; f_timed_out = timed_out; f_retries = retries }

let manifest_schema = "dsas-campaign/1"

let spec_path dir = Filename.concat dir "spec.json"

let manifest_path dir = Filename.concat dir "manifest.json"

let log_path dir = Filename.concat dir "cells.jsonl"

let cells_dir dir = Filename.concat dir "cells"

let metrics_path ~dir id = Filename.concat (cells_dir dir) (id ^ ".metrics.json")

let trace_path ~dir id = Filename.concat (cells_dir dir) (id ^ ".trace.jsonl")

let error_path ~dir id = Filename.concat (cells_dir dir) (id ^ ".error.txt")

let write_atomic path content =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc content;
  close_out oc;
  Sys.rename tmp path

let mkdir_p path =
  let rec make p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      make (Filename.dirname p);
      (try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    end
  in
  make path

let manifest_json ~spec ~git =
  let points = Spec.points spec in
  Obs.Json.obj
    ([
       ("schema", Obs.Json.String manifest_schema);
       ("name", Obs.Json.String spec.Spec.name);
       ("cell", Obs.Json.String spec.Spec.cell);
       ("config_hash", Obs.Json.String (Spec.config_hash spec));
       ("total_cells", Obs.Json.Int (List.length points));
     ]
     @ match git with None -> [] | Some g -> [ ("git", Obs.Json.String g) ])

(* Create or re-open.  Re-opening an existing directory is the resume
   path: the stored spec must hash identically, otherwise the done/
   pending bookkeeping would silently describe a different grid. *)
let init ~dir ~spec ~git =
  if Sys.file_exists (spec_path dir) then begin
    match Spec.load (spec_path dir) with
    | Error msg -> Error (Printf.sprintf "existing %s: %s" (spec_path dir) msg)
    | Ok existing ->
      if Spec.config_hash existing = Spec.config_hash spec then Ok ()
      else
        Error
          (Printf.sprintf
             "%s already holds campaign %S with a different grid (config %s, \
              asked for %s); use a fresh directory"
             dir existing.Spec.name
             (Spec.config_hash existing) (Spec.config_hash spec))
  end
  else begin
    mkdir_p (cells_dir dir);
    write_atomic (spec_path dir) (Spec.to_json spec ^ "\n");
    write_atomic (manifest_path dir) (manifest_json ~spec ~git ^ "\n");
    Ok ()
  end

let load_spec ~dir = Spec.load (spec_path dir)

let append_log ~dir line =
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 (log_path dir)
  in
  output_string oc (line ^ "\n");
  close_out oc

(* [t] is an optional wall-clock stamp (Unix epoch seconds, supplied
   by the executor — the store itself never reads a clock); older logs
   without it replay with no timing. *)
let stamp t = match t with Some t -> [ ("t", Obs.Json.Float t) ] | None -> []

let record ?t ~dir id status =
  let line =
    match status with
    | Done ->
      Obs.Json.obj
        ([ ("cell", Obs.Json.String id); ("status", Obs.Json.String "done") ]
         @ stamp t)
    | Failed f ->
      (* [retries] is always written; [timed_out] only when set (an
         int, to stay within the flat parser) — older logs without
         either field replay with the defaults. *)
      Obs.Json.obj
        ([
           ("cell", Obs.Json.String id);
           ("status", Obs.Json.String "failed");
           ("error", Obs.Json.String f.f_msg);
           ("retries", Obs.Json.Int f.f_retries);
         ]
         @ (if f.f_timed_out then [ ("timed_out", Obs.Json.Int 1) ] else [])
         @ stamp t)
    | Pending ->
      Obs.Json.obj
        ([ ("cell", Obs.Json.String id); ("status", Obs.Json.String "pending") ]
         @ stamp t)
  in
  append_log ~dir line

(* A "running" line marks the moment an attempt was spawned.  It never
   changes a cell's resume status — [statuses] replays it as Pending —
   but [timings] mines it for wall-clock start/elapsed, which is how
   [campaign status] and [top] spot stragglers. *)
let record_start ~dir ~t id =
  append_log ~dir
    (Obs.Json.obj
       [ ("cell", Obs.Json.String id); ("status", Obs.Json.String "running");
         ("t", Obs.Json.Float t) ])

(* Last line per cell wins; unknown ids (from an older grid) are
   ignored, lines that fail to parse are skipped — the log is
   append-only and a torn final line from a kill is expected. *)
let statuses ~dir spec =
  let table = Hashtbl.create 64 in
  (match Obs.File.read (log_path dir) with
   | Error _ -> ()
   | Ok text ->
     String.split_on_char '\n' text
     |> List.iter (fun line ->
            if String.trim line <> "" then
              match Obs.Json.parse_obj line with
              | None -> ()
              | Some fields ->
                (match
                   (Obs.Json.mem_string fields "cell", Obs.Json.mem_string fields "status")
                 with
                 | Some id, Some "done" -> Hashtbl.replace table id Done
                 | Some id, Some "failed" ->
                   let msg =
                     match Obs.Json.mem_string fields "error" with
                     | Some e -> e
                     | None -> "failed"
                   in
                   let retries =
                     Option.value (Obs.Json.mem_int fields "retries") ~default:0
                   in
                   let timed_out = Obs.Json.mem_int fields "timed_out" = Some 1 in
                   Hashtbl.replace table id
                     (failed ~timed_out ~retries msg)
                 | Some id, Some "pending" -> Hashtbl.replace table id Pending
                 (* a running attempt is not a completion: for resume
                    purposes the cell is still pending *)
                 | Some id, Some "running" -> Hashtbl.replace table id Pending
                 | _ -> ())));
  List.map
    (fun (p : Spec.point) ->
      match Hashtbl.find_opt table p.Spec.id with
      | Some st -> (p, st)
      | None -> (p, Pending))
    (Spec.points spec)

(* --- wall-clock timings --------------------------------------------- *)

type timing = { t_started : float option; t_finished : float option }

(* Replay the log for timestamps: a "running" line opens an attempt
   (clearing any earlier finish), "done"/"failed" closes it, "pending"
   re-queues the cell and forgets both.  Cells appear in first-mention
   order; lines without a "t" field (older logs) contribute [None]. *)
let timings ~dir =
  let table : (string, timing) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  (match Obs.File.read (log_path dir) with
   | Error _ -> ()
   | Ok text ->
     String.split_on_char '\n' text
     |> List.iter (fun line ->
            if String.trim line <> "" then
              match Obs.Json.parse_obj line with
              | None -> ()
              | Some fields ->
                (match
                   (Obs.Json.mem_string fields "cell", Obs.Json.mem_string fields "status")
                 with
                 | Some id, Some status ->
                   let t =
                     match List.assoc_opt "t" fields with
                     | Some (Obs.Json.Float f) -> Some f
                     | Some (Obs.Json.Int n) -> Some (float_of_int n)
                     | _ -> None
                   in
                   let prev =
                     match Hashtbl.find_opt table id with
                     | Some tm -> tm
                     | None ->
                       order := id :: !order;
                       { t_started = None; t_finished = None }
                   in
                   let next =
                     match status with
                     | "running" -> { t_started = t; t_finished = None }
                     | "done" | "failed" -> { prev with t_finished = t }
                     | "pending" -> { t_started = None; t_finished = None }
                     | _ -> prev
                   in
                   Hashtbl.replace table id next
                 | _ -> ())));
  List.rev_map (fun id -> (id, Hashtbl.find table id)) !order

(* --- loading results ------------------------------------------------ *)

type loaded = {
  point : Spec.point;
  status : status;
  metrics : (string * float) list;  (* flattened; [] unless Done *)
}

(* Flatten a dsas-metrics/1 document to scalar bindings: counters and
   gauges by name; stats as .mean/.min/.max/.count; histograms as
   .p50/.p90/.p99/.count.  Series are shapes, not scalars — skipped. *)
let flatten_metrics doc =
  let section name f =
    match Obs.Json.tree_mem doc name with
    | Some (Obs.Json.TObj fields) -> List.concat_map f fields
    | _ -> []
  in
  let num v = match v with Obs.Json.TNum f -> Some f | _ -> None in
  let sub keys (k, v) =
    List.filter_map
      (fun key ->
        match v with
        | Obs.Json.TObj _ ->
          (match Obs.Json.tree_num v key with
           | Some f -> Some (k ^ "." ^ key, f)
           | None -> None)
        | _ -> None)
      keys
  in
  section "counters" (fun (k, v) ->
      match num v with Some f -> [ (k, f) ] | None -> [])
  @ section "gauges" (fun (k, v) ->
        match num v with Some f -> [ (k, f) ] | None -> [])
  @ section "stats" (sub [ "mean"; "min"; "max"; "count" ])
  @ section "histograms" (sub [ "p50"; "p90"; "p99"; "count" ])

let load_metrics path =
  match Obs.File.read path with
  | Error msg -> Error msg
  | Ok text ->
    (match Obs.Json.parse_tree text with
     | None -> Error (Printf.sprintf "%s: malformed JSON" path)
     | Some doc ->
       (match Obs.Json.tree_str doc "schema" with
        | Some "dsas-metrics/1" -> Ok (flatten_metrics doc)
        | Some other ->
          Error (Printf.sprintf "%s: schema %S, expected \"dsas-metrics/1\"" path other)
        | None -> Error (Printf.sprintf "%s: missing \"schema\" field" path)))

(* Strict on done cells: a cell the log claims done must have a
   readable artifact — a missing or torn metrics file is a store
   corruption worth surfacing, not an empty row. *)
let load ~dir =
  match load_spec ~dir with
  | Error msg -> Error msg
  | Ok spec ->
    let rec walk acc = function
      | [] -> Ok (List.rev acc)
      | ((p : Spec.point), st) :: rest ->
        (match st with
         | Done ->
           (match load_metrics (metrics_path ~dir p.Spec.id) with
            | Ok metrics -> walk ({ point = p; status = st; metrics } :: acc) rest
            | Error msg -> Error msg)
         | _ -> walk ({ point = p; status = st; metrics = [] } :: acc) rest)
    in
    Result.map (fun cells -> (spec, cells)) (walk [] (statuses ~dir spec))

(* Reference two-level hierarchy: Paging.Hierarchy as it was before its
   levels moved onto Paging.Resident_slots under one shared LRU, kept
   verbatim as the oracle of test_paging.ml.  Each level is a Hashtbl
   of [last_use]/[touches] records and its victim is found by a full
   scan.  Config types are shared with Paging.Hierarchy so one config
   drives both. *)

type promotion = Paging.Hierarchy.promotion =
  | Always
  | After of int
  | Never

type config = Paging.Hierarchy.config = {
  fast_frames : int;
  bulk_frames : int;
  fast_us : int;
  bulk_us : int;
  fetch_us : int;
  promotion : promotion;
  device : Device.Model.t option;
}

(* Per-resident-page state at whichever level holds it. *)
type entry = { mutable last_use : int; mutable touches : int }

type t = {
  cfg : config;
  fast : (int, entry) Hashtbl.t;
  bulk : (int, entry) Hashtbl.t;
  mutable tick : int;
  mutable refs : int;
  mutable faults : int;
  mutable promotions : int;
  mutable fast_hits : int;
  mutable elapsed_us : int;
  mutable hard_failures : int;
}

let create cfg =
  assert (cfg.fast_frames >= 0 && cfg.bulk_frames > 0);
  {
    cfg;
    fast = Hashtbl.create 64;
    bulk = Hashtbl.create 64;
    tick = 0;
    refs = 0;
    faults = 0;
    promotions = 0;
    fast_hits = 0;
    elapsed_us = 0;
    hard_failures = 0;
  }

let lru_victim table =
  let best = ref None in
  (* lint: allow L3 — argmin under the total (last_use, page) order is order-independent *)
  Hashtbl.iter
    (fun page entry ->
      match !best with
      | Some (best_page, e)
        when e.last_use < entry.last_use
             || (e.last_use = entry.last_use && best_page < page) -> ()
      | Some _ | None -> best := Some (page, entry))
    table;
  match !best with
  | Some (page, _) -> page
  | None -> invalid_arg "Hierarchy: eviction from an empty level"

(* Make room in bulk core, pushing the LRU page back to the drum. *)
let ensure_bulk_room t =
  if Hashtbl.length t.bulk >= t.cfg.bulk_frames then
    Hashtbl.remove t.bulk (lru_victim t.bulk)

(* Demote fast core's LRU page into bulk core. *)
let demote t =
  let page = lru_victim t.fast in
  let entry = Hashtbl.find t.fast page in
  Hashtbl.remove t.fast page;
  ensure_bulk_room t;
  entry.touches <- 0;
  Hashtbl.replace t.bulk page entry

let promote t page entry =
  if t.cfg.fast_frames > 0 then begin
    Hashtbl.remove t.bulk page;
    if Hashtbl.length t.fast >= t.cfg.fast_frames then demote t;
    entry.touches <- 0;
    Hashtbl.replace t.fast page entry;
    t.promotions <- t.promotions + 1
  end

let should_promote t entry =
  match t.cfg.promotion with
  | Always -> true
  | After k -> entry.touches >= k
  | Never -> false

(* The hierarchy sits below the layers with a redundant copy to fall
   back on, so its recovery policy is Surface: a terminal drum failure
   leaves the page absent and is handed to the caller, who decides
   (the wall-clock cost of the failed attempts is still charged). *)
let touch_result t ~page =
  t.refs <- t.refs + 1;
  t.tick <- t.tick + 1;
  match Hashtbl.find_opt t.fast page with
  | Some entry ->
    entry.last_use <- t.tick;
    entry.touches <- entry.touches + 1;
    t.fast_hits <- t.fast_hits + 1;
    t.elapsed_us <- t.elapsed_us + t.cfg.fast_us;
    Ok ()
  | None ->
    (match Hashtbl.find_opt t.bulk page with
     | Some entry ->
       entry.last_use <- t.tick;
       entry.touches <- entry.touches + 1;
       t.elapsed_us <- t.elapsed_us + t.cfg.bulk_us;
       if should_promote t entry then promote t page entry;
       Ok ()
     | None ->
       (* Drum fault: always lands in the bulk level first. *)
       t.faults <- t.faults + 1;
       let fetched =
         match t.cfg.device with
         | None ->
           t.elapsed_us <- t.elapsed_us + t.cfg.fetch_us + t.cfg.bulk_us;
           Ok ()
         | Some m ->
           (match
              Device.Model.fetch_result m ~now:t.elapsed_us
                ~kind:Device.Request.Demand ~page ~words:0
            with
            | Ok fin ->
              t.elapsed_us <- fin + t.cfg.bulk_us;
              Ok ()
            | Error f ->
              t.hard_failures <- t.hard_failures + 1;
              t.elapsed_us <- max t.elapsed_us f.at_us;
              Error (Resilience.Failure.of_device f))
       in
       (match fetched with
        | Error _ as e -> e
        | Ok () ->
          ensure_bulk_room t;
          let entry = { last_use = t.tick; touches = 1 } in
          Hashtbl.replace t.bulk page entry;
          if should_promote t entry then promote t page entry;
          Ok ()))

let touch t ~page =
  match touch_result t ~page with
  | Ok () -> ()
  (* lint: allow L4 — legacy wrapper; unreachable without a Fail-escalation device, documented to raise otherwise *)
  | Error f -> failwith (Resilience.Failure.to_string f)

let run t trace = Array.iter (fun page -> touch t ~page) trace

let refs t = t.refs

let faults t = t.faults

let promotions t = t.promotions

let fast_hits t = t.fast_hits

let hard_failures t = t.hard_failures

let elapsed_us t = t.elapsed_us

let effective_access_us t =
  if t.refs = 0 then 0. else float_of_int t.elapsed_us /. float_of_int t.refs

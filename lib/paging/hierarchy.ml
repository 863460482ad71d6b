type promotion =
  | Always
  | After of int
  | Never

type config = {
  fast_frames : int;
  bulk_frames : int;
  fast_us : int;
  bulk_us : int;
  fetch_us : int;
  promotion : promotion;
  device : Device.Model.t option;
}

(* One resident set per level under one LRU: every touch stamps the
   page, and a page moving between the levels keeps its stamp, so each
   level's victim is its own least recently used page.  One table
   answers a reference: a resident page's level, and its touches since
   it reached that level. *)
type t = {
  cfg : config;
  fast : Resident_slots.t;
  bulk : Resident_slots.t;
  lru : Replacement.t;
  state : Flat_table.t;  (* page -> (touches lsl level_bits) lor level; 0 if absent *)
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
    fast = Resident_slots.create ~capacity:cfg.fast_frames;
    bulk = Resident_slots.create ~capacity:cfg.bulk_frames;
    lru = Replacement.lru ();
    state = Flat_table.create ~absent:0;
    refs = 0;
    faults = 0;
    promotions = 0;
    fast_hits = 0;
    elapsed_us = 0;
    hard_failures = 0;
  }

let level_bits = 2

let in_fast = 1

let in_bulk = 2

(* A state word one touch later. *)
let touch_once state = state + (1 lsl level_bits)

(* Move [page] up to fast core, demoting fast core's LRU page into the
   bulk frame it leaves. *)
let promote t page =
  if t.cfg.fast_frames > 0 then begin
    Resident_slots.remove t.bulk page;
    if Resident_slots.is_full t.fast then begin
      let demoted = Replacement.victim t.lru t.fast in
      Resident_slots.remove t.fast demoted;
      Flat_table.set t.state demoted in_bulk;
      Resident_slots.add t.bulk demoted
    end;
    Flat_table.set t.state page in_fast;
    Resident_slots.add t.fast page;
    t.promotions <- t.promotions + 1
  end

let should_promote t state =
  match t.cfg.promotion with
  | Always -> true
  | After k -> state lsr level_bits >= k
  | Never -> false

(* The hierarchy sits below the layers with a redundant copy to fall
   back on, so its recovery policy is Surface: a terminal drum failure
   leaves the page absent and is handed to the caller, who decides
   (the wall-clock cost of the failed attempts is still charged). *)
let touch_result t ~page =
  t.refs <- t.refs + 1;
  t.lru.Replacement.on_reference ~page ~write:false;
  let state = Flat_table.find t.state page in
  let level = state land ((1 lsl level_bits) - 1) in
  if level = in_fast then begin
    Flat_table.set t.state page (touch_once state);
    t.fast_hits <- t.fast_hits + 1;
    t.elapsed_us <- t.elapsed_us + t.cfg.fast_us;
    Ok ()
  end
  else if level = in_bulk then begin
    let state = touch_once state in
    Flat_table.set t.state page state;
    t.elapsed_us <- t.elapsed_us + t.cfg.bulk_us;
    if should_promote t state then promote t page;
    Ok ()
  end
  else begin
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
    match fetched with
    | Error _ as e -> e
    | Ok () ->
      (* the bulk level's LRU page goes back to the drum *)
      let evicted = Replacement.admit t.lru t.bulk ~page in
      if evicted >= 0 then Flat_table.remove t.state evicted;
      let state = touch_once in_bulk in
      Flat_table.set t.state page state;
      if should_promote t state then promote t page;
      Ok ()
  end

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

(* Shard bodies are pure functions of (config, shard index): private
   clock, derived rng, private engine, private event buffer.  The only
   cross-domain traffic is Pool.map_shards handing back the per-shard
   results; the caller's sink is touched exclusively on the caller's
   domain, after the join, via the deterministic Obs.Merge stage.

   Supervision.  Every body is written against a [tick] callback
   (called once per workload step with the shard's clock and a lazy
   snapshot) and a [resume] checkpoint.  The plain driver [run] passes
   a no-op tick and no checkpoint, so it runs the exact same code the
   unsupervised engines always ran; [run_supervised] wires tick to
   Supervisor.step, which is what turns the same body into a
   crash-restartable one.  A zero-fault supervised run is
   byte-identical to the unsupervised run by construction. *)

(* Per-site rng defaults: distinct streams per shard under one master
   seed (see Sim.Rng.derive).  The multipliers keep alloc and paging
   shards on unrelated streams. *)
let alloc_rng_site shard = 0xA110C + (shard * 7919)
let paging_rng_site shard = 0x9A61B + (shard * 104729)

(* A shard buffers its (already relabelled) events locally, and the
   recovery check buffers merged streams the same way; reversed into an
   array at the end so streams arrive in emission order.  [init]
   pre-seeds the buffer with a checkpoint's event prefix. *)
let buffer_sink ?(init = [||]) () =
  let buf = ref (List.rev (Array.to_list init)) in
  let sink = Obs.Sink.collect (fun ev -> buf := ev :: !buf) in
  let contents () =
    let arr = Array.of_list !buf in
    let n = Array.length arr in
    Array.init n (fun i -> arr.(n - 1 - i))
  in
  (sink, contents)

let noop_tick ~clock_us:_ ~snapshot:_ = ()

(* A workload is its shard count and one body per shard.  The body
   returns the shard's report row and its buffered (relabelled) event
   stream; the drivers below are the only code that maps bodies over
   the pool, merges their streams and assembles a report. *)
type tick = clock_us:int -> snapshot:(unit -> Supervisor.snap) -> unit

type 's workload = {
  w_shards : int;
  w_body :
    traced:bool ->
    tick:tick ->
    resume:Checkpoint.state option ->
    int ->
    's * Obs.Event.t array;
}

type 's report = {
  r_shards : 's array;
  r_events : int;
  r_telemetry : Obs.Telemetry.snapshot array;
}

(* Per-shard telemetry is derived from the buffered event stream
   (Obs.Telemetry.of_events) after the shard body finishes, not
   captured live inside the engine: a pure function of the events is
   automatically bit-identical across [domains] widths and across
   crash-recovered supervised runs.  Computed on the shard's own
   domain for plain runs. *)
let shard_telemetry ~telemetry ~shard events =
  match telemetry with
  | Some every_us -> Obs.Telemetry.of_events ~shard ~every_us events
  | None -> [||]

(* Evaluate watchdog rules over each shard's snapshot stream; the
   first escalating fire (by shard index, then snapshot order) becomes
   the run's failure, mirroring the supervisor's own escalation
   order. *)
let watchdog_failure rules telemetry_streams =
  match rules with
  | [] -> None
  | rules ->
    let fail = ref None in
    Array.iteri
      (fun shard snaps ->
        if !fail = None then begin
          let w = Obs.Watch.create rules in
          Array.iter
            (fun (sn : Obs.Telemetry.snapshot) ->
              List.iter
                (fun alert ->
                  match alert with
                  | Obs.Watch.Fire { rule; _ }
                    when rule.Obs.Watch.escalate && !fail = None ->
                    fail :=
                      Some
                        (Resilience.Failure.Watchdog_tripped
                           { rule = rule.Obs.Watch.name;
                             shard;
                             at_us = sn.Obs.Telemetry.sn_t_us })
                  | Obs.Watch.Fire _ | Obs.Watch.Clear _ -> ())
                (Obs.Watch.feed w sn))
            snaps
        end)
      telemetry_streams;
    !fail

(* {2 Fixed-size allocation} *)

type alloc_config = {
  a_shards : int;
  a_ops_per_shard : int;
  a_slots_per_shard : int;
  a_slot_words : int;
  a_op_us : int;
  a_seed : int;
}

let alloc_config ?(shards = 4) ?(ops_per_shard = 20_000) ?(slots_per_shard = 512)
    ?(slot_words = 16) ?(op_us = 5) ~seed () =
  if shards < 1 then invalid_arg "Sharded.alloc_config: shards < 1";
  if ops_per_shard < 0 then invalid_arg "Sharded.alloc_config: ops_per_shard < 0";
  { a_shards = shards; a_ops_per_shard = ops_per_shard;
    a_slots_per_shard = slots_per_shard; a_slot_words = slot_words;
    a_op_us = op_us; a_seed = seed }

type shard_alloc = {
  sa_shard : int;
  sa_allocs : int;
  sa_frees : int;
  sa_failures : int;
  sa_refills : int;
  sa_flushes : int;
  sa_live : int;
  sa_elapsed_us : int;
  sa_events : int;
}

(* Rebuild the arena and live set from a checkpoint payload
   [live_n; live slots...; Fixed_alloc encoding...], or refuse it. *)
let alloc_resume cfg shard (st : Checkpoint.state) =
  let fail fmt = Printf.ksprintf (fun m -> raise (Checkpoint.Inconsistent m)) fmt in
  let p = st.Checkpoint.ck_payload in
  if st.Checkpoint.ck_progress > cfg.a_ops_per_shard then
    fail "shard %d checkpoint progress %d beyond %d ops" shard
      st.Checkpoint.ck_progress cfg.a_ops_per_shard;
  if Array.length p < 1 then fail "shard %d checkpoint payload empty" shard;
  let live_n = p.(0) in
  if live_n < 0 || live_n > cfg.a_slots_per_shard
     || Array.length p < 1 + live_n
  then fail "shard %d checkpoint live set malformed" shard;
  let live = Array.make (max 1 cfg.a_slots_per_shard) 0 in
  Array.blit p 1 live 0 live_n;
  let arena_words = cfg.a_slots_per_shard * cfg.a_slot_words in
  let enc = Array.sub p (1 + live_n) (Array.length p - 1 - live_n) in
  match
    Fixed_alloc.restore ~base:(shard * arena_words) ~slots:cfg.a_slots_per_shard
      ~slot_words:cfg.a_slot_words enc
  with
  | None -> fail "shard %d checkpoint arena malformed" shard
  | Some (_, cache) -> (cache, live, live_n)

(* One shard of the mixed alloc/free workload.  The arena base puts the
   shard's addresses in a globally disjoint range, so Alloc/Free events
   need no relabelling.  The stream holds roughly half the arena live:
   below target it biases toward allocation, at the target it frees, in
   between it flips the shard's coin. *)
let alloc_shard_run cfg ~traced ~tick ~resume shard =
  let arena_words = cfg.a_slots_per_shard * cfg.a_slot_words in
  let rng, clock, cache, live, live_n0, start, init_events =
    match resume with
    | None ->
      let rng = Sim.Rng.derive ~override:cfg.a_seed (alloc_rng_site shard) in
      let fa =
        Fixed_alloc.create ~base:(shard * arena_words)
          ~slots:cfg.a_slots_per_shard ~slot_words:cfg.a_slot_words ()
      in
      ( rng, Sim.Clock.create (), Fixed_alloc.cache fa,
        Array.make (max 1 cfg.a_slots_per_shard) 0, 0, 0, [||] )
    | Some st ->
      let cache, live, live_n = alloc_resume cfg shard st in
      let clock = Sim.Clock.create () in
      Sim.Clock.advance clock st.Checkpoint.ck_clock_us;
      ( Sim.Rng.of_state st.Checkpoint.ck_rng, clock, cache, live, live_n,
        st.Checkpoint.ck_progress, st.Checkpoint.ck_events )
  in
  let sink, contents = buffer_sink ~init:init_events () in
  let live_n = ref live_n0 in
  let target = max 1 (cfg.a_slots_per_shard / 2) in
  let size = cfg.a_slot_words in
  for _op = start + 1 to cfg.a_ops_per_shard do
    Sim.Clock.advance clock cfg.a_op_us;
    let do_alloc =
      if !live_n = 0 then true
      else if !live_n >= target then false
      else Sim.Rng.bool rng
    in
    if do_alloc then begin
      match Fixed_alloc.alloc cache with
      | Some addr ->
        live.(!live_n) <- addr;
        incr live_n;
        if traced then
          Obs.Sink.emit sink
            (Obs.Event.make ~t_us:(Sim.Clock.now clock)
               (Obs.Event.Alloc { addr; size }))
      | None -> ()
    end else begin
      let i = Sim.Rng.int rng !live_n in
      let addr = live.(i) in
      live.(i) <- live.(!live_n - 1);
      decr live_n;
      Fixed_alloc.free cache addr;
      if traced then
        Obs.Sink.emit sink
          (Obs.Event.make ~t_us:(Sim.Clock.now clock)
             (Obs.Event.Free { addr; size }))
    end;
    tick ~clock_us:(Sim.Clock.now clock) ~snapshot:(fun () ->
        { Supervisor.sn_clock_us = Sim.Clock.now clock;
          sn_rng = Sim.Rng.state rng;
          sn_payload =
            Array.concat
              [ [| !live_n |]; Array.sub live 0 !live_n;
                Fixed_alloc.snapshot cache ];
          sn_events = contents () })
  done;
  let st = Fixed_alloc.stats cache in
  let events = contents () in
  ( { sa_shard = shard;
      sa_allocs = st.Fixed_alloc.allocs;
      sa_frees = st.Fixed_alloc.frees;
      sa_failures = st.Fixed_alloc.failures;
      sa_refills = st.Fixed_alloc.refills;
      sa_flushes = st.Fixed_alloc.flushes;
      sa_live = !live_n;
      sa_elapsed_us = Sim.Clock.now clock;
      sa_events = Array.length events },
    events )

let alloc cfg = { w_shards = cfg.a_shards; w_body = alloc_shard_run cfg }

(* {2 Demand paging} *)

type paging_config = {
  p_shards : int;
  p_refs_per_shard : int;
  p_frames_per_shard : int;
  p_pages_per_shard : int;
  p_page_size : int;
  p_policy : Paging.Spec.t;
  p_compute_us_per_ref : int;
  p_seed : int;
}

let paging_config ?(shards = 4) ?(refs_per_shard = 8_000) ?(frames_per_shard = 12)
    ?(pages_per_shard = 24) ?(page_size = 256) ?(policy = Paging.Spec.Lru)
    ?(compute_us_per_ref = 50) ~seed () =
  if shards < 1 then invalid_arg "Sharded.paging_config: shards < 1";
  if frames_per_shard < 1 then
    invalid_arg "Sharded.paging_config: frames_per_shard < 1";
  if pages_per_shard < frames_per_shard then
    invalid_arg "Sharded.paging_config: pages_per_shard < frames_per_shard";
  { p_shards = shards; p_refs_per_shard = refs_per_shard;
    p_frames_per_shard = frames_per_shard; p_pages_per_shard = pages_per_shard;
    p_page_size = page_size; p_policy = policy;
    p_compute_us_per_ref = compute_us_per_ref; p_seed = seed }

type shard_paging = {
  sp_shard : int;
  sp_refs : int;
  sp_faults : int;
  sp_writebacks : int;
  sp_elapsed_us : int;
  sp_events : int;
}

(* Relabel a shard-local event into the shard's global ranges: pages
   shift by the shard's page base, io request ids by a per-shard stride
   wide enough that no two shards' ids collide.  Applied at buffering
   time, on the shard's own domain. *)
let relabel ~page_off ~req_off (ev : Obs.Event.t) =
  let open Obs.Event in
  let kind =
    match ev.kind with
    | Fault { page } -> Fault { page = page + page_off }
    | Cold_fault { page } -> Cold_fault { page = page + page_off }
    | Eviction { page } -> Eviction { page = page + page_off }
    | Writeback { page } -> Writeback { page = page + page_off }
    | Tlb_hit { key } -> Tlb_hit { key = key + page_off }
    | Tlb_miss { key } -> Tlb_miss { key = key + page_off }
    | Io_start { req; page; io } ->
      Io_start { req = req + req_off; page = page + page_off; io }
    | Io_done { req; page; io } ->
      Io_done { req = req + req_off; page = page + page_off; io }
    | Io_retry { req; attempt } -> Io_retry { req = req + req_off; attempt }
    | Io_error { req; page; io; attempts } ->
      Io_error { req = req + req_off; page = page + page_off; io; attempts }
    | other -> other
  in
  { ev with kind }

(* Each engine restarts request ids at 0; a fault costs at most a fetch
   and a writeback request, so 2x the reference count (with slack)
   bounds a shard's id range. *)
let req_stride cfg = (4 * cfg.p_refs_per_shard) + 16

(* The paging engine's state (frame tables, device queues, victim
   policies) has no flat encoding, so a resumed shard {e replays}: it
   rebuilds the engine and re-drives the references before the
   checkpoint with emission suppressed, then verifies the replayed
   clock, RNG stream, event count and fault/writeback digest against
   the checkpoint before emitting the suffix.  Any disagreement means
   the checkpoint cannot be trusted — Inconsistent poisons it. *)
let paging_shard_run cfg ~traced ~tick ~resume shard =
  let rng = Sim.Rng.derive ~override:cfg.p_seed (paging_rng_site shard) in
  let clock = Sim.Clock.create () in
  let pages = cfg.p_pages_per_shard in
  let page_off = shard * pages in
  let req_off = shard * req_stride cfg in
  let start, init_events =
    match resume with
    | Some st ->
      if st.Checkpoint.ck_progress > cfg.p_refs_per_shard then
        raise
          (Checkpoint.Inconsistent
             (Printf.sprintf "shard %d checkpoint progress %d beyond %d refs"
                shard st.Checkpoint.ck_progress cfg.p_refs_per_shard));
      (st.Checkpoint.ck_progress, st.Checkpoint.ck_events)
    | None -> (0, [||])
  in
  let sink, contents = buffer_sink ~init:init_events () in
  let emitting = ref (start = 0) in
  let suppressed = ref 0 in
  let obs =
    if traced then
      Obs.Sink.collect (fun ev ->
          if !emitting then Obs.Sink.emit sink (relabel ~page_off ~req_off ev)
          else incr suppressed)
    else Obs.Sink.null
  in
  (* Phase-structured local reference string, then word addresses with
     a random offset inside each page. *)
  let page_trace =
    Workload.Trace.working_set_phases rng ~length:cfg.p_refs_per_shard
      ~extent:pages
      ~set_size:(max 1 (cfg.p_frames_per_shard * 2 / 3))
      ~phase_length:(max 1 (cfg.p_refs_per_shard / 8))
      ~locality:0.95
  in
  let word_trace =
    Array.map (fun p -> (p * cfg.p_page_size) + Sim.Rng.int rng cfg.p_page_size)
      page_trace
  in
  let engine_spec =
    { Paging.Spec.e_page_size = cfg.p_page_size;
      e_frames = cfg.p_frames_per_shard;
      e_pages = pages;
      e_device = Memstore.Device.drum;
      e_policy = cfg.p_policy;
      e_tlb_slots = None;
      e_compute_us_per_ref = cfg.p_compute_us_per_ref }
  in
  let engine =
    Paging.Spec.build ~obs ~core_name:(Printf.sprintf "core%d" shard) ~clock ~rng
      ~trace:page_trace engine_spec
  in
  (* Quarter of the references are writes, so evictions exercise the
     write-back path; the page reference string is unchanged. *)
  let drive i =
    let addr = word_trace.(i) in
    if i land 3 = 0 then Paging.Demand.write engine addr (Int64.of_int addr)
    else
      let (_ : int64) = Paging.Demand.read engine addr in
      ()
  in
  for i = 0 to start - 1 do
    drive i
  done;
  (match resume with
   | None -> ()
   | Some st ->
     let fail fmt =
       Printf.ksprintf (fun m -> raise (Checkpoint.Inconsistent m)) fmt
     in
     if Sim.Clock.now clock <> st.Checkpoint.ck_clock_us then
       fail "shard %d replay clock %d disagrees with checkpoint %d" shard
         (Sim.Clock.now clock) st.Checkpoint.ck_clock_us;
     if Sim.Rng.state rng <> st.Checkpoint.ck_rng then
       fail "shard %d replay rng stream disagrees with checkpoint" shard;
     if traced && !suppressed <> Array.length st.Checkpoint.ck_events then
       fail "shard %d replay emitted %d events where checkpoint recorded %d"
         shard !suppressed
         (Array.length st.Checkpoint.ck_events);
     (match st.Checkpoint.ck_payload with
      | [| faults; writebacks |] ->
        if Paging.Demand.faults engine <> faults
           || Paging.Demand.writebacks engine <> writebacks
        then
          fail "shard %d replay digest %d/%d disagrees with checkpoint %d/%d"
            shard (Paging.Demand.faults engine)
            (Paging.Demand.writebacks engine) faults writebacks
      | _ -> fail "shard %d checkpoint digest malformed" shard);
     emitting := true);
  for i = start to Array.length word_trace - 1 do
    drive i;
    tick ~clock_us:(Sim.Clock.now clock) ~snapshot:(fun () ->
        { Supervisor.sn_clock_us = Sim.Clock.now clock;
          sn_rng = Sim.Rng.state rng;
          sn_payload =
            [| Paging.Demand.faults engine; Paging.Demand.writebacks engine |];
          sn_events = contents () })
  done;
  let events = contents () in
  ( { sp_shard = shard;
      sp_refs = Paging.Demand.refs engine;
      sp_faults = Paging.Demand.faults engine;
      sp_writebacks = Paging.Demand.writebacks engine;
      sp_elapsed_us = Sim.Clock.now clock;
      sp_events = Array.length events },
    events )

let paging cfg = { w_shards = cfg.p_shards; w_body = paging_shard_run cfg }

(* {2 Drivers} *)

let check_width fn ~domains ~telemetry =
  if domains < 1 then invalid_arg (fn ^ ": domains < 1");
  match telemetry with
  | Some e when e < 1 -> invalid_arg (fn ^ ": telemetry cadence < 1")
  | _ -> ()

(* The join: merge the shard streams into [obs] and assemble the
   report from the shard rows and their telemetry streams. *)
let assemble ~obs rows streams tele =
  { r_shards = rows;
    r_events = Obs.Merge.emit ~into:obs streams;
    r_telemetry = Obs.Telemetry.merge tele }

let run ?(obs = Obs.Sink.null) ?telemetry ~domains w =
  check_width "Sharded.run" ~domains ~telemetry;
  let traced = Obs.Sink.is_active obs || telemetry <> None in
  let per_shard =
    Pool.map_shards ~domains ~shards:w.w_shards (fun shard ->
        let row, events =
          w.w_body ~traced ~tick:noop_tick ~resume:None shard
        in
        (row, events, shard_telemetry ~telemetry ~shard events))
  in
  assemble ~obs
    (Array.map (fun (r, _, _) -> r) per_shard)
    (Array.map (fun (_, ev, _) -> ev) per_shard)
    (Array.map (fun (_, _, t) -> t) per_shard)

let run_supervised ?(obs = Obs.Sink.null) ?(supervision = Obs.Sink.null)
    ?telemetry ?(watch = []) ?(policy = Supervisor.policy ()) ?(kills = [])
    ?(checkpoint_every = 512) ?checkpoint_dir ~domains w =
  check_width "Sharded.run_supervised" ~domains ~telemetry;
  if watch <> [] && telemetry = None then
    invalid_arg "Sharded.run_supervised: watch rules need a telemetry cadence";
  let traced = Obs.Sink.is_active obs || telemetry <> None in
  (match checkpoint_dir with
   | Some d when not (Sys.file_exists d) ->
     (try Sys.mkdir d 0o755 with Sys_error _ -> ())
   | _ -> ());
  let inject =
    match kills with
    | [] -> Supervisor.no_inject
    | ks -> Supervisor.inject_of_kills ks
  in
  let per =
    Pool.map_shards ~domains ~shards:w.w_shards (fun shard ->
        let store = Checkpoint.store ?dir:checkpoint_dir ~shard () in
        Supervisor.supervise ~policy ~inject ~checkpoint_every ~store ~shard
          ~run:(fun ~resume ctl ->
            w.w_body ~traced ~resume shard
              ~tick:(fun ~clock_us ~snapshot ->
                Supervisor.step ctl ~clock_us ~snapshot)))
  in
  (* First escalation (by shard index) wins; no partial emission. *)
  match Array.find_map (function Error f -> Some f | Ok _ -> None) per with
  | Some f -> Error f
  | None ->
    let per = Array.map (function Ok v -> v | Error _ -> assert false) per in
    let streams = Array.map (fun ((_, ev), _) -> ev) per in
    let tele = Array.mapi (fun shard ev -> shard_telemetry ~telemetry ~shard ev) streams in
    (match watchdog_failure watch tele with
     | Some f -> Error f
     | None ->
       let report =
         assemble ~obs (Array.map (fun ((r, _), _) -> r) per) streams tele
       in
       let outcomes = Array.map snd per in
       let (_ : int) =
         Obs.Merge.emit ~into:supervision
           (Array.map (fun o -> o.Supervisor.o_events) outcomes)
       in
       Ok (report, outcomes))

(* {2 The recovery check} *)

type recovered = {
  rc_events : Obs.Event.t array;
  rc_outcomes : Supervisor.outcome array;
  rc_supervision : Obs.Event.t array;
}

type 's recovery = {
  reference : 's report;
  reference_events : Obs.Event.t array;
  subject : (recovered, Resilience.Failure.t) result;
  identical : bool;
}

(* Byte for byte on the wire encoding: the same bytes a --trace file
   would hold. *)
let same_bytes a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> String.equal (Obs.Event.to_json x) (Obs.Event.to_json y))
       a b

let recovery_check ?kills ~checkpoint_every ~domains w =
  let ref_sink, ref_events = buffer_sink () in
  let reference = run ~obs:ref_sink ~domains:1 w in
  let reference_events = ref_events () in
  let sink, events = buffer_sink () in
  let sup, sup_events = buffer_sink () in
  let subject =
    match
      run_supervised ~obs:sink ~supervision:sup ?kills ~checkpoint_every ~domains w
    with
    | Error f -> Error f
    | Ok (_, outcomes) ->
      Ok
        { rc_events = events ();
          rc_outcomes = outcomes;
          rc_supervision = sup_events () }
  in
  let identical =
    match subject with
    | Ok s -> same_bytes reference_events s.rc_events
    | Error _ -> false
  in
  { reference; reference_events; subject; identical }

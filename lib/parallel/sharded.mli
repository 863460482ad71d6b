(** Sharded multicore simulation: partitioned engines on a domain
    pool, with a deterministic merge of the per-shard event streams.

    The execution model.  A workload is split into [shards] independent
    partitions.  Each shard owns {e everything} it touches — a virtual
    clock starting at 0, a derived RNG stream, its arena (a slice of
    the global address / page-name space), its engine, and a private
    event buffer.  {!Pool.map_shards} runs the shard bodies across
    [domains] domains under a static assignment; afterwards, on the
    caller's domain, {!Obs.Merge} interleaves the buffered per-shard
    streams by (virtual time, shard index, arrival order) into the
    caller's sink.

    The determinism contract.  The shard count is part of the workload
    description; [domains] is only an execution width.  Because no
    shard shares mutable state with another and the merge key is a
    pure function of the events, the merged trace — and every count in
    the report — is bit-identical for any [domains >= 1].  Results can
    legitimately differ only when the {e shard count} changes: that is
    a different workload (different partitions, clocks and RNG
    streams), not a different schedule.

    Namespacing.  Each shard simulates in local coordinates and its
    events are relabelled into disjoint global ranges at buffering
    time: shard [s] of an allocation run owns addresses
    [[s*slots*slot_words, (s+1)*slots*slot_words)]; shard [s] of a
    paging run owns pages [[s*pages, (s+1)*pages)] and a disjoint
    io-request-id range.  A merged stream therefore passes
    {!Obs.Check} as one run segment: residency, io pairing and
    first-touch accounting never collide across shards.

    The code paths.  A workload ({!alloc}, {!paging}) is a shard count
    plus one body per shard.  There is one plain driver ({!run}), one
    supervised driver ({!run_supervised}) and one recovery check
    ({!recovery_check}) built from the two; each is generic over the
    workload. *)

(** {2 Workloads and reports} *)

type 's workload
(** A sharded workload: its shard count and one body per shard, each
    returning the shard's report row (['s]) and its buffered event
    stream.  Built by {!alloc} and {!paging}; run by {!run} and
    {!run_supervised}. *)

type 's report = {
  r_shards : 's array;  (** one row per shard, in shard order *)
  r_events : int;
      (** events in the merged stream (0 when neither trace nor
          telemetry was requested) *)
  r_telemetry : Obs.Telemetry.snapshot array;
      (** merged per-shard telemetry ({!Obs.Telemetry.merge} order);
          [[||]] when no cadence was requested *)
}

(** {2 Fixed-size allocation (the lock-free engine)} *)

type alloc_config = {
  a_shards : int;  (** partitions; part of the workload, not the width *)
  a_ops_per_shard : int;  (** alloc/free operations per shard *)
  a_slots_per_shard : int;  (** fixed-size blocks per shard arena *)
  a_slot_words : int;  (** words per block *)
  a_op_us : int;  (** virtual time per operation *)
  a_seed : int;  (** master seed; each shard derives its own stream *)
}

val alloc_config :
  ?shards:int ->
  ?ops_per_shard:int ->
  ?slots_per_shard:int ->
  ?slot_words:int ->
  ?op_us:int ->
  seed:int ->
  unit ->
  alloc_config
(** Defaults: 4 shards, 20_000 ops, 512 slots of 16 words, 5 us/op. *)

type shard_alloc = {
  sa_shard : int;
  sa_allocs : int;  (** successful allocations *)
  sa_frees : int;
  sa_failures : int;  (** allocations denied (arena exhausted) *)
  sa_refills : int;  (** magazines pulled from the shard's pool *)
  sa_flushes : int;  (** magazines returned to it *)
  sa_live : int;  (** blocks still allocated at end of run *)
  sa_elapsed_us : int;  (** the shard's virtual clock at end of run *)
  sa_events : int;  (** events this shard contributed to the trace *)
}

val alloc : alloc_config -> shard_alloc workload
(** Each shard drives a private {!Fixed_alloc} over its arena with a
    mixed alloc/free stream (holding roughly half the arena live),
    buffering [Alloc]/[Free] events when traced. *)

(** {2 Demand paging} *)

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

val paging_config :
  ?shards:int ->
  ?refs_per_shard:int ->
  ?frames_per_shard:int ->
  ?pages_per_shard:int ->
  ?page_size:int ->
  ?policy:Paging.Spec.t ->
  ?compute_us_per_ref:int ->
  seed:int ->
  unit ->
  paging_config
(** Defaults: 4 shards, 8_000 refs, 12 frames over 24 pages of 256
    words, LRU, 50 us compute per reference. *)

type shard_paging = {
  sp_shard : int;
  sp_refs : int;
  sp_faults : int;
  sp_writebacks : int;
  sp_elapsed_us : int;
  sp_events : int;
}

val paging : paging_config -> shard_paging workload
(** Each shard builds a fresh {!Paging.Spec.build} engine on its own
    clock and drives it over a phase-structured reference trace derived
    from the shard's RNG stream.  Events are relabelled into the
    shard's global page and request-id ranges at buffering time. *)

(** {2 Plain execution} *)

val run :
  ?obs:Obs.Sink.t -> ?telemetry:int -> domains:int -> 's workload -> 's report
(** Run every shard body on a pool of [domains] domains and merge the
    buffered streams into [obs].  [telemetry] (a cadence in simulated
    µs) additionally derives each shard's {!Obs.Telemetry} snapshot
    stream from its buffered events — on the shard's own domain — and
    merges them into [r_telemetry]; it forces event buffering even
    when [obs] is inactive.  The report, the merged stream, and the
    merged telemetry are bit-identical for any [domains >= 1].  Raises
    [Invalid_argument] if [domains < 1] or the cadence is below 1. *)

(** {2 Supervised execution}

    {!run_supervised} runs the exact same shard bodies
    under {!Supervisor.supervise}: per-shard bounded restarts from
    {!Checkpoint} state, deterministic fault injection via [kills],
    and typed escalation.  Guarantees, for every [domains >= 1] and
    every kill schedule that does not escalate:

    - the merged {e engine} trace written to [obs] is bit-identical
      to the zero-fault run (and hence to the unsupervised run);
    - the report is identical to the zero-fault report;
    - the {e supervision} trace (crash / restart / checkpoint events,
      on a simulated wall timeline) is written separately to
      [supervision] and is itself deterministic.

    An alloc shard resumes by restoring its arena directly from the
    checkpoint encoding; a paging shard resumes by replaying the
    references before the checkpoint with emission suppressed and
    verifying clock, RNG, event count and fault digest against the
    checkpoint ({!Checkpoint.Inconsistent} poisons an untrustworthy
    checkpoint and costs a restart).

    [checkpoint_every] counts workload steps (default 512; 0 disables
    checkpointing).  With [checkpoint_dir], checkpoints are mirrored
    to [DIR/shard<N>.ckpt] with atomic tmp+rename writes.

    [telemetry] behaves as in {!run}; because the snapshots are
    derived from the recovered event streams after the join, a
    crash-recovered run's telemetry is bit-identical to the fault-free
    run's by construction.  [watch] (requires [telemetry]) evaluates
    {!Obs.Watch} rules over every shard's snapshot stream after the
    join; the first escalating fire — lowest shard index, then
    snapshot order — aborts the run with
    [Resilience.Failure.Watchdog_tripped] before anything is emitted
    to [obs], the same no-partial-emission discipline as crash
    escalation. *)

val run_supervised :
  ?obs:Obs.Sink.t ->
  ?supervision:Obs.Sink.t ->
  ?telemetry:int ->
  ?watch:Obs.Watch.rule list ->
  ?policy:Supervisor.policy ->
  ?kills:Supervisor.kill list ->
  ?checkpoint_every:int ->
  ?checkpoint_dir:string ->
  domains:int ->
  's workload ->
  ('s report * Supervisor.outcome array, Resilience.Failure.t) result

(** {2 The recovery check}

    The determinism contract, checked on the spot: run the workload
    unsupervised at width 1 (the reference), rerun it supervised at
    [domains] under [kills], and compare the two merged engine traces
    byte for byte on their JSONL encoding.  [x11_parallel], multicore
    chaos and the [par_chaos] campaign cell all go through this one
    function. *)

type recovered = {
  rc_events : Obs.Event.t array;  (** the subject's merged engine trace *)
  rc_outcomes : Supervisor.outcome array;  (** per shard, in shard order *)
  rc_supervision : Obs.Event.t array;  (** the merged supervision stream *)
}

type 's recovery = {
  reference : 's report;  (** the width-1 unsupervised report *)
  reference_events : Obs.Event.t array;  (** its merged engine trace *)
  subject : (recovered, Resilience.Failure.t) result;
      (** the supervised rerun, or the typed escalation that ended it *)
  identical : bool;
      (** the subject's engine trace is byte-identical to the
          reference's; [false] when the subject escalated *)
}

val recovery_check :
  ?kills:Supervisor.kill list ->
  checkpoint_every:int ->
  domains:int ->
  's workload ->
  's recovery

(** Multicore chaos scenarios: the supervised sharded engines under
    seeded shard-kill schedules, for {!Resilience.Chaos.run}.

    Each round is one {!Parallel.Sharded.recovery_check}: the workload
    runs fault-free at width 1 as a reference, then supervised at the
    requested width under the round's kill schedule.  The supervised
    engine trace must come out byte-identical to the reference —
    recovery is invisible in the observable record — and the counters
    expose the verdict:

    - ["crashes"] / ["restarts"] / ["checkpoints"]: summed supervisor
      outcomes across shards;
    - ["escalated"]: 1 if a shard exhausted its restart budget (the
      drawn schedules never should — at most 2 kills per shard against
      a budget of 3);
    - ["diverged"]: 1 if the recovered trace differed from the
      reference.  CI gates on this being 0.

    A round yields two segments: the recovered engine trace, then the
    supervision stream (configured [... supervision]). *)

val shard_schedule :
  Sim.Rng.t -> shards:int -> steps:int -> Parallel.Supervisor.kill list
(** Draw one kill schedule: per shard, 0-2 kills at ascending workload
    steps in [1, steps], each a stall with probability 1/5.  At most 2
    kills per shard keeps every schedule inside the default restart
    budget — chaos exercises recovery; escalation is a deliberate,
    separate test. *)

val draw :
  ?kills:Parallel.Supervisor.kill list ->
  quick:bool ->
  Sim.Rng.t ->
  Parallel.Supervisor.kill list
(** A round's fault, for {!Resilience.Chaos.run}'s [draw]: a
    {!shard_schedule} over the scenarios' 4 shards and their workload
    steps (150 quick, else 600).  A fixed [kills] replaces it — after
    the draw, so the rounds' workload seeds do not move. *)

val scenarios :
  ?quick:bool ->
  ?domains:int ->
  unit ->
  Parallel.Supervisor.kill list Resilience.Chaos.scenario list
(** The two scenarios (supervised alloc, supervised paging).
    [domains] (default 2) is the execution width of the supervised
    subject run; the reference always runs at width 1. *)

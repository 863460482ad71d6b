(** The seeded chaos harness: randomized-but-reproducible fault
    schedules driven through engine scenarios, every run validated by
    {!Obs.Check}.

    One round loop serves both kinds of chaos.  It is generic in the
    fault a round draws — a device {!Device.Fault.config} for the x9
    scenarios, a shard-kill list for the supervised sharded engines —
    and in the run segments a round yields: one for a device round,
    engine plus supervision for a sharded round (the two carry
    different event vocabularies, so each needs its own segment).

    A {!scenario} is a closure an upper layer (the experiments library)
    supplies: given a seed and a fault, run a workload and return named
    counters (e.g. [("mirror_fetches", 3)]) with the round's segments.
    The harness owns the randomness: one chaos seed deterministically
    fixes every round's fault and workload seed, so a failing run can
    be replayed exactly.

    Layering note: this module sits below the engines on purpose — it
    cannot name [Paging], [Core] or [Parallel], so scenarios arrive as
    closures and a kill list is just another ['fault]. *)

type segment = {
  config : string;  (** stamped into the segment's [run_start] boundary *)
  events : Obs.Event.t list;  (** unshifted, in emission order *)
}

type 'fault scenario = {
  name : string;
  run : seed:int -> fault:'fault -> (string * int) list * segment list;
      (** run the workload; return named counters and the round's
          segments, in splice order *)
}

val device :
  name:string ->
  (seed:int -> fault:Device.Fault.config -> obs:Obs.Sink.t -> (string * int) list) ->
  Device.Fault.config scenario
(** A device scenario: the workload writes into [obs], and the round
    yields that stream as one segment, configured
    ["chaos scenario=NAME"]. *)

type 'fault run_result = {
  scenario : string;
  index : int;
  fault : 'fault;  (** what the round drew *)
  counters : (string * int) list;
  events : int;
  check : Obs.Check.report;
}

type 'fault summary = {
  runs : 'fault run_result list;
  seed : int;  (** the chaos seed *)
  scenarios : int;  (** distinct scenarios cycled through *)
  total_events : int;
  violations : int;  (** invariant violations across all runs *)
  totals : (string * int) list;  (** counters summed across runs *)
}

val schedule : Sim.Rng.t -> Device.Fault.config
(** Draw one device fault configuration: read error probability in
    [0.05, 0.45), write errors on half the schedules, permanence up to
    0.3, 0-3 retries, always [Fail] escalation (chaos exercises
    recovery, and [Degrade] never surfaces a failure). *)

val run :
  ?trace:Obs.Sink.t ->
  ?progress:(int -> unit) ->
  ?count_boundaries:bool ->
  draw:(Sim.Rng.t -> 'fault) ->
  scenarios:'fault scenario list ->
  runs:int ->
  seed:int ->
  unit ->
  'fault summary
(** Execute [runs] rounds, cycling through [scenarios].  Each round
    draws its fault with [draw], then its workload seed, both from the
    chaos seed's stream.  The round's segments are spliced one after
    another into a single monotone multi-run stream: segment [k] of
    the whole run becomes run [k], announced by an
    {!Obs.Sink.segment} boundary one microsecond past the previous
    segment's latest stamp.  Each round's spliced events are checked
    ({!Obs.Check.check_events}) and written to [trace], if given, for
    offline re-checking.  A round's [events] counts its segments'
    events, plus their boundaries when [count_boundaries] (default
    [false]; device chaos has always reported its trace's line count).
    [progress] is called after each round with its index. *)

val ok : _ summary -> bool
(** Zero invariant violations. *)

val counter : _ summary -> string -> int
(** Summed counter by name, 0 if absent. *)

val report : ?domains:int -> json:bool -> _ summary -> (unit, string) result
(** Print the summary on stdout — one JSON object with [json], else
    the text table — followed by every run that violated an
    invariant.  [domains] marks multicore chaos (a ["multicore chaos"]
    header with the width, ["supervision totals"]).  [Error] names
    the first reason the run failed: violated invariants, then a
    ["diverged"] counter above 0, then an ["escalated"] one. *)

(** Pluggable destinations for the event stream.

    Engines accept a sink (defaulting to {!null}) and report through
    it.  The contract for hot paths: guard each emission with
    {!is_active} so that with the {!null} sink the entire observability
    layer costs one branch and no allocation —

    {[
      if Obs.Sink.is_active t.obs then
        Obs.Sink.emit t.obs (Obs.Event.make ~t_us (Fault { page }))
    ]}

    (engines typically cache [is_active] in a [bool] field at creation,
    since a sink's activeness never changes). *)

type t

val null : t
(** Discards everything; {!is_active} is [false]. *)

val ring : capacity:int -> t
(** Keep the last [capacity] events in memory.  [capacity >= 1]. *)

val jsonl : out_channel -> t
(** Write each event as one JSON object per line ({!Event.to_json}).
    The caller owns the channel; {!flush} before closing it. *)

val collect : (Event.t -> unit) -> t
(** Hand every event to a callback (custom aggregation). *)

val tee : t -> t -> t
(** Duplicate the stream into both sinks.  Collapses over {!null}:
    [tee null s] is [s], so wrapping an inactive sink stays inactive. *)

val shift : offset:int -> t -> t
(** Forward events with [offset] added to their timestamp.  Lets a
    multi-engine experiment (each engine owning a fresh clock) splice
    its runs into one monotone stream.  [shift ~offset null] is
    {!null}. *)

val segment : ?seed:int -> ?config:string -> run:int -> offset:int -> t -> t
(** [shift ~offset], announced: emits a {!Event.Run_start} boundary
    (stamped [offset], i.e. the shifted origin) before returning the
    shifted sink.  Experiments that splice several engine runs into one
    stream use one [segment] per run so that {!Check} can scope its
    invariants — request ids and first-touch sets restart at each
    boundary.  [seed] and [config] are stamped into the boundary event
    (with the trace schema version) so the recorded stream identifies
    the run that produced it.  [segment ~run ~offset null] is {!null}
    and emits nothing. *)

val sample : every:int -> (Event.t -> unit) -> t
(** Invoke the callback on every [every]-th event ([every >= 1]) — the
    hook for mid-run probes (resident-set size, fragmentation) feeding
    a {!Series}.  {!Event.Run_start} segment
    boundaries always reach the callback and do not advance the
    sampling counter, so a sampled stream remains scopeable by {!Check}
    and the kept subsequence of ordinary events does not depend on how
    many segments the stream was spliced from.  Events themselves are
    not forwarded anywhere; tee with another sink to also record
    them. *)

val is_active : t -> bool
(** [false] exactly for {!null}.  Hot paths branch on this before
    constructing an event. *)

val emit : t -> Event.t -> unit

val flush : t -> unit
(** Flush any buffered output channels (recursing through tees). *)

val ring_contents : t -> Event.t list
(** Events still held by a {!ring} sink, oldest first.  [[]] for other
    sinks. *)

val ring_seen : t -> int
(** Total events ever emitted to a {!ring} sink (>= length of
    {!ring_contents}).  [0] for other sinks. *)

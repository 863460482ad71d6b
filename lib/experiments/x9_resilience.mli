(** X9 (extension): end-to-end failure semantics and load control.

    The multiprogrammed set of C7/X8d run over a faulty drum with
    [Fail] escalation: a fault-rate x controller-policy table showing
    bounded abort-and-restart recovery and space-time-product load
    shedding, plus the demand engine's write-side fault accounting
    ([write_rolls_skipped]).  Also home of the {!scenarios} the chaos
    harness ([dsas_sim chaos]) drives. *)

type row = {
  error_prob : float;
  policy : string;  (** "none" or "space-time" *)
  cpu_utilization : float;
  elapsed_us : int;
  total_faults : int;
  restarts : int;
  jobs_failed : int;
  sheds : int;
  admits : int;
  injected : int;
  failed : int;  (** terminal device failures surfaced *)
}

type write_row = {
  write_error_prob : float;
  writebacks : int;
  write_injected : int;
  write_rolls_skipped : int;
  mirror_fetches : int;
  terminal_failures : int;
}

val one :
  ?seed:int ->
  obs:Obs.Sink.t ->
  refs_per_job:int ->
  error_prob:float ->
  policy:string ->
  unit ->
  row
(** One multiprogrammed run over the faulty drum — the grid point
    behind {!measure} and the campaign [resilience] cell.  [policy] is
    ["none"] or ["space-time"]. *)

val measure : ?quick:bool -> ?obs:Obs.Sink.t -> ?seed:int -> unit -> row list

val measure_writes : ?quick:bool -> ?seed:int -> unit -> write_row list

val scenarios :
  ?quick:bool -> unit -> Device.Fault.config Resilience.Chaos.scenario list
(** The four chaos scenarios: demand paging under [Mirror] and
    [Surface] recovery, the swapper's mirrored write-outs and surfaced
    swap-in failures, and the multiprogrammed scheduler's bounded
    abort-and-restart under load control. *)

val run : ?quick:bool -> ?obs:Obs.Sink.t -> ?seed:int -> unit -> unit

(** Replacement strategies.

    The paper: "When it is necessary to make room in working storage for
    some new information, a replacement strategy is used to determine
    which informational units should be overlayed.  The strategy should
    seek to avoid the overlaying of information which may be required
    again in the near future."  The canon evaluated by Belady [1] —
    RANDOM, FIFO, LRU, the unrealizable optimum — is implemented here
    together with the machine-specific strategies of the appendix: the
    ATLAS "learning program" (A.1), the M44's class-random rule (A.2),
    plus CLOCK, NRU, LFU and working-set as the standard points of
    comparison.

    A policy is a record of callbacks driven by the paging engine:
    [on_reference] fires for {e every} reference in trace order (hit or
    fault), [on_load]/[on_evict] on residency changes ([on_load] only
    for a page that is not resident), and [choose_victim] must return
    one of the [candidates] it is given.

    {b The [candidates] contract.}  The array is non-empty, holds the
    evictable resident pages (already filtered for locked or in-flight
    pages) in {e ascending} page order, and is borrowed: the engine may
    pass its own resident-set array (as {!Fault_sim} does), so a policy
    must neither mutate it nor keep it after returning.  Policies test
    membership by binary search and break ties towards the earliest
    candidate, i.e. the lowest page key.  Each victim choice reads each
    candidate's state once, comparing machine integers.

    {b Flat state.}  Per-page state (stamps, counts, use and modified
    bits, the ATLAS times) lives in {!Flat_table}s keyed by the page,
    which accept the sparse packed keys of the shared-pool engines; FIFO
    and CLOCK keep their load order in arrays.  After warm-up no
    callback allocates. *)

type t = {
  name : string;
  on_reference : page:int -> write:bool -> unit;
  on_load : page:int -> unit;
  on_evict : page:int -> unit;
  choose_victim : candidates:int array -> int;
  full_victim : (unit -> int) option;
      (** The full-set shortcut.  [Some f]: [f ()] is the page
          [choose_victim] would return if offered, in ascending order,
          every page the policy holds state for (loaded or referenced,
          and not evicted since); an engine's resident set is a subset
          of those.  It may be a page outside the set in hand, or [-1]
          when the policy holds no page.  Only {!victim} calls it, and
          checks the answer.  A wrapper that changes [choose_victim]
          must set this to [None]. *)
}

val victim : t -> Resident_slots.t -> int
(** The victim among every page of a full resident set: the
    [full_victim] answer when the set holds it, which is then exactly
    the page [choose_victim] would pick from the set (the answer is the
    choice over a superset), else [choose_victim] on the slots array.
    The set may share its policy with another set, as {!Hierarchy}'s
    two levels share one LRU; then answers in the other set fall back
    to the scan. *)

val admit : t -> Resident_slots.t -> page:int -> int
(** The fault sequence of a fixed-frame engine whose candidates are its
    whole resident set: load the non-resident [page] into [slots],
    first evicting a victim if every frame is full ({!victim}, then
    remove and [on_evict]), then add and [on_load].  Returns the
    victim, or [-1] when a frame was free.  Allocates nothing after
    warm-up.  The set's capacity must be positive. *)

val fifo : unit -> t
(** Evict the page resident longest: the first entry of the load-order
    queue that is a candidate.  Skipped entries keep their place,
    including stale ones of pages evicted without [choose_victim] (e.g.
    by {!Demand.advise_wont_need}), which are taken again if their page
    is loaded and a candidate when the queue reaches them. *)

val lru : unit -> t
(** Evict the page unreferenced longest; ties (pages loaded without a
    reference in between) go to the lowest page.  [full_victim] is
    [Some]: at its first call the policy builds a recency list of its
    stamped pages in flat arrays and keeps it from then on, so a
    full-set victim costs the run of equal oldest stamps at the head
    of the list, not a scan of the set.  An engine that only ever
    offers filtered candidates never builds the list. *)

val clock_sweep : unit -> t
(** Second chance: a hand sweeps pages in load order, clearing use bits;
    the first page found with its bit clear is the victim.  The hand
    walks the ring as it was when the hand last wrapped; after
    [2 * (resident + 1)] steps without a victim it gives up and takes
    the first candidate. *)

val random : Sim.Rng.t -> t
(** Uniform choice among candidates. *)

val nru : Sim.Rng.t -> t
(** Not-recently-used classes: prefer (unused, unmodified), then
    (unused, modified), then used classes; random within a class.  Use
    bits are cleared after every victim choice, emulating the periodic
    sensor reset. *)

val lfu : unit -> t
(** Evict the page with the fewest references since load. *)

val atlas_learning : unit -> t
(** The ATLAS drum-transfer learning program (Kilburn et al. [14]): for
    each resident page keep [t], the time since last use, and [T], the
    length of its previous period of inactivity.  A page with [t > T + 1]
    is believed out of use and the one with greatest [t] is taken;
    otherwise the page maximising [T - t] (longest expected time until
    next use) is taken.  Time is measured in references. *)

val m44 : Sim.Rng.t -> t
(** The M44/44X rule (appendix A.2, after Belady): select at random from
    the set of equally acceptable candidates, determined on the basis of
    frequency of usage and whether or not the page has been modified —
    i.e. random among the least-frequently-used, preferring unmodified
    pages within that set. *)

val working_set : tau:int -> t
(** The working-set rule with window [tau] as a fixed-frame replacement
    policy: evict a page outside the window, the one longest out, and
    the least recently used page when every candidate is inside it.
    That page is the least recently used one either way, so in this
    model the rule is {!lru} under the name ["WS(tau)"]. *)

val opt : Workload.Trace.t -> t
(** Belady's unrealizable optimum for the given page-number trace: evict
    the page whose next use is farthest in the future.  The policy
    counts references via [on_reference] to know its position, so it
    must only be driven by exactly this trace. *)

val all_practical : Sim.Rng.t -> t list
(** The realizable policies compared in experiment C3 (fresh instances):
    FIFO, LRU, CLOCK, RANDOM, NRU, LFU, ATLAS, M44, working-set. *)

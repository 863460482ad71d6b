(** The resident set of a fixed-frame engine, as the ascending array of
    its page keys.

    A load inserts into the array and an eviction removes from it, both
    by binary search and a block move.  Engines choose a victim only when
    every frame is full, and then the backing array holds exactly the
    resident keys in ascending order, so it is passed to
    {!Replacement.t.choose_victim} as the candidate array with nothing
    built or sorted per eviction.  When the whole set is the candidates,
    {!Replacement.victim} first asks the policy's full-set answer and
    keeps it only if {!mem} finds it here, so a policy such as LRU
    need not scan the array at all.  It is the resident set of every
    engine that chooses victims through {!Replacement}: {!Fault_sim},
    {!Demand}, {!Hierarchy} (one set per level), the multiprogrammed
    pool of [Dsas.Multiprog], and the segmented engines
    [Segmentation.Two_level] and [Segmentation.Dual_pager]. *)

type t

val create : capacity:int -> t
(** An empty set holding at most [capacity] keys. *)

val size : t -> int

val is_full : t -> bool
(** [size t = capacity]. *)

val mem : t -> int -> bool
(** Binary search over machine integers, no allocation. *)

val add : t -> int -> unit
(** Insert a key that is not a member.
    @raise Invalid_argument if the key is a member or the set is full. *)

val remove : t -> int -> unit
(** @raise Invalid_argument if the key is not a member. *)

val slots : t -> int array
(** The backing array, borrowed: its first [size t] elements are the
    members in ascending order, and when {!is_full} that is all of it.
    Callers must not mutate it. *)

val filter : t -> keep:(int -> bool) -> int array
(** The members satisfying [keep], ascending: the backing array itself,
    lent as by {!slots}, when the set is full and every member is kept,
    else a fresh array.  How an engine that pins some resident pages
    (locked, or still being fetched) builds its candidates. *)

val ascending_mem : int array -> int -> bool
(** Membership in an array sorted ascending, by binary search: how a
    policy tests whether a page is among its candidates. *)

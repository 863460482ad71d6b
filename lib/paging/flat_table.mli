(** Open-addressing table from [int] keys to [int] values.

    The per-page state of every replacement policy (stamps, counts,
    use/modified bits, the ATLAS [t]/[T] times) lives in tables of this
    kind.  Keys may be sparse: the shared-pool engines pass packed keys
    such as [job lsl 32 lor page] or [segment lsl 24 lor page], so there
    is one structure for every engine rather than a dense array for some.

    Each table has an {e absent} value that unbound keys read as.
    Removing a key stores that value, so a removal never breaks a probe
    chain and the table grows only with the number of distinct keys that
    hold a non-absent value.  Lookups and updates allocate nothing.
    When the keys in use reach half the slots the table drops the keys
    whose value is absent: in place, allocating nothing, while the live
    bindings fill at most a quarter of the slots, and otherwise into
    backing arrays of double size or more.  The only iteration is
    {!bindings}, in key order, so no result can depend on hash order. *)

type t

val create : absent:int -> t
(** An empty table whose unbound keys read as [absent]. *)

val find : t -> int -> int
(** The value bound to the key, or the table's absent value. *)

val set : t -> int -> int -> unit
(** Bind the key.  Setting the absent value is the same as {!remove}.
    @raise Invalid_argument on the key [min_int], which marks empty
    slots. *)

val remove : t -> int -> unit
(** Unbind the key: it reads as the absent value again. *)

val bindings : t -> (int * int) array
(** Every key with a non-absent value, with that value, in ascending
    key order.  Allocates the result. *)

val capacity : t -> int
(** Number of slots (a power of two); exposed for tests of growth. *)

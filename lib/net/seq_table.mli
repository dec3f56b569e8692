(** Table keyed by packet sequence number, allocation-free in steady
    state.

    A power-of-two direct-mapped array: key [k] lives in slot
    [k land (capacity - 1)] or nowhere. When a new key lands on a slot
    held by another key, the table doubles until every live key has a
    slot of its own (distinct non-negative ints always separate under a
    wide enough mask). The live keys of a sender span about one
    congestion window, so collisions are rare, and the capacity grows
    with that span, not with the number of keys ever stored. Lookup,
    insertion and removal touch one slot and allocate nothing; only
    doubling allocates.

    Keys must be non-negative ([-1] marks an empty slot). Values of
    removed keys are overwritten with the table's [dummy], so the table
    keeps nothing alive that its caller dropped. *)

type 'a t

val create : ?capacity:int -> 'a -> 'a t
(** [create ?capacity dummy] is an empty table with [capacity]
    (default 256, rounded up to a power of two) slots, each holding
    [dummy]. *)

val length : 'a t -> int
(** Number of keys stored. *)

val find_slot : 'a t -> int -> int
(** [find_slot t k] is the slot holding [k], or [-1] when [k] is
    absent. *)

val mem : 'a t -> int -> bool

val slot_value : 'a t -> int -> 'a
(** Value in a slot returned by {!find_slot}. *)

val remove_slot : 'a t -> int -> unit
(** Remove the key held by a slot returned by {!find_slot}. *)

val replace : 'a t -> int -> 'a -> unit
(** [replace t k v] binds [k] to [v], overwriting any earlier binding of
    [k]. Raises [Invalid_argument] when [k < 0]. *)

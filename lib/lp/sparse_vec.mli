(** Immutable sparse vectors indexed by [int], sorted by index.

    Used for the columns of constraint matrices.  Indices are strictly
    increasing and values are non-zero (entries below a drop tolerance are
    removed at construction). *)

type t = private {
  idx : int array;    (** strictly increasing indices *)
  value : float array; (** same length as [idx]; all non-zero *)
}

val empty : t

val nnz : t -> int
(** Number of stored entries. *)

val drop_tol : float
(** [1e-12], the magnitude at or below which {!of_assoc} drops an entry. *)

val of_assoc : (int * float) list -> t
(** Build from an unsorted association list.  Zeros and NaNs are skipped,
    duplicate indices are summed (in list order after a stable sort by
    index), and entries whose magnitude is at most {!drop_tol} are
    dropped.
    @raise Invalid_argument on a negative index. *)

val of_arrays : int array -> float array -> t
(** Adopt pre-sorted arrays (checked).  The arrays are not copied. *)

val to_assoc : t -> (int * float) list

val get : t -> int -> float
(** [get v i] is the coefficient at index [i] (0. when absent);
    binary search, O(log nnz). *)

val dot_dense : t -> float array -> float
(** [dot_dense v d] is the inner product with the dense array [d]. *)

val axpy_dense : float -> t -> float array -> unit
(** [axpy_dense a v d] performs [d.(i) <- d.(i) +. a *. v.(i)] for each
    stored entry. *)

val iter : (int -> float -> unit) -> t -> unit

val fold : ('a -> int -> float -> 'a) -> 'a -> t -> 'a

val map_values : (float -> float) -> t -> t
(** Apply a function to every stored value; entries mapped to (near-)zero
    are dropped. *)

val max_abs : t -> float
(** Largest entry magnitude, 0. for the empty vector. *)

val scale : float -> t -> t

val pp : Format.formatter -> t -> unit

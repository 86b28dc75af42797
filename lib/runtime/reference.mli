(** Direct (host-side) evaluation of a stencil pattern: the correctness
    oracle the compiled pipeline is tested against, and also the
    semantic definition of what the recognized Fortran statement
    means. *)

type env = (string * Grid.t) list
(** Array bindings by (upcased) name: the source array and every
    coefficient array.  All grids must share one shape. *)

exception Unbound of string
exception Shape_mismatch of string

val lookup : env -> string -> Grid.t
(** Raises {!Unbound}. *)

val coeff_value : env -> Ccc_stencil.Coeff.t -> int -> int -> float
(** Value of a coefficient at a position: array element, literal
    scalar, or 1.0. *)

val apply : Ccc_stencil.Pattern.t -> env -> Grid.t
(** Evaluate [R(i,j) = sum_k C_k(i,j) * X(i + dr_k, j + dc_k) + bias(i,j)]
    over the whole array, with the pattern's boundary semantics.
    Raises {!Unbound} or {!Shape_mismatch}. *)

val apply_multi : Ccc_stencil.Multi.t -> env -> Grid.t
(** {!apply} for a multi-source pattern, each tap reading its own
    source array (a single-source pattern is the one-source case): the
    oracle for fused execution. *)

val check_env : Ccc_stencil.Pattern.t -> env -> unit
(** Validate that every array the pattern references is bound and all
    shapes agree. *)

val check_multi : Ccc_stencil.Multi.t -> env -> unit
(** {!check_env} for a multi-source pattern: every array bound, every
    shape that of the first source. *)

val referenced_arrays : Ccc_stencil.Pattern.t -> string list
(** Every array name the pattern reads: the source, the coefficient
    arrays, and the bias array if any (with repeats). *)

(** Least-squares linear regression, as used for RTT-gradient estimation
    (PCC Vivace / Proteus) and for the per-MI regression-error noise
    tolerance of Proteus (§5 of the paper). *)

type fit = {
  slope : float;  (** dy/dx of the least-squares line. *)
  intercept : float;  (** y value of the line at x = 0. *)
  residual_rms : float;
      (** Root-mean-square of the residuals [y_i - (a + b x_i)]; the
          paper's regression error before MI-duration normalization. *)
}

val fit : x:float array -> y:float array -> fit
(** Least-squares fit of [y] against [x]. Arrays must have equal, nonzero
    length. A fit over fewer than 2 distinct [x] values has slope 0. *)

val fit_prefix : x:float array -> y:float array -> n:int -> fit
(** {!fit} over the first [n] entries of [x] and [y], bit for bit,
    without copying them. Raises [Invalid_argument] when [n = 0] or [n]
    exceeds either array's length. *)

val slope_of_indexed : float array -> float
(** [slope_of_indexed ys] fits [ys] against indices [1..k]; the paper's
    trending-gradient computation over stored MI mean RTTs. *)

(** Prometheus text exposition format.

    Renders a list of samples as the Prometheus text format: one
    [# TYPE] header per metric name, histograms expanded into
    cumulative [_bucket]/[_sum]/[_count] series.  Callers pass the
    samples sorted by (name, labels), so the output is
    byte-deterministic.

    {!validate} is a line-level checker for the same grammar — enough
    for the CLI and CI to assert that an export would be accepted by a
    Prometheus scraper, without a client library dependency. *)

type value =
  | VCounter of float
  | VGauge of float
  | VHistogram of { h_bounds : float array; h_counts : int array; h_sum : float; h_count : int }
      (** [h_counts] has one bucket per bound plus the implicit +inf
          bucket. *)

type sample = { s_name : string; s_labels : (string * string) list; s_value : value }

val render : sample list -> string

(** Check [text] against the exposition-format grammar line by line
    (comments and blank lines skipped).  Returns the first offending
    line's number and reason on failure. *)
val validate : string -> (unit, string) result

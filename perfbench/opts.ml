(** Settings shared by every workload of one benchmark invocation. *)

type t = {
  seed : int;  (** every input is generated from this *)
  seconds : float;  (** measured time, summed over the run's rounds *)
  trace : bool;  (** per-layer run: spans and layer counters *)
}

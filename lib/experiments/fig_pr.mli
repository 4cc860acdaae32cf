(** Figures 5.2 and 5.4: the number of path-segments |Pr| an individual
    router monitors under Π2 and Πk+2, as a function of the
    AdjacentFault(k) bound, on Sprintlink-like and EBONE-like
    topologies. *)

type series = {
  k : int;
  max_pr : float;
  mean_pr : float;
  median_pr : float;
}

val sweep :
  protocol:[ `Pi2 | `Pik2 ] ->
  topology:[ `Sprintlink | `Ebone ] ->
  ?ks:int list ->
  unit ->
  series list
(** Compute the three Fig 5.2/5.4 curves (default k = 1..8). *)

val eval : unit -> Exp.result
(** Four sections (Π2/Πk+2 × Sprintlink/EBONE), each one table with
    columns [k], [max |Pr|], [avg |Pr|], [med |Pr|]. *)

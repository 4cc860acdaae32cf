(* The library's one event queue, reached as [Prioq.Event]. *)
module Event = Evheap

(* The library's one heap, reached as [Prioq.Event]. *)
module Event = Evheap

type t = { mutable cost : int array; mutable value : int array; mutable size : int }

let create capacity =
  let capacity = max 1 capacity in
  { cost = Array.make capacity 0; value = Array.make capacity 0; size = 0 }

let is_empty t = t.size = 0
let top_cost t = t.cost.(0)
let top_value t = t.value.(0)

let grow a =
  let b = Array.make (2 * Array.length a) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Both sifts move a hole and write the moving entry once, at the end. *)
let push t c v =
  if t.size = Array.length t.cost then begin
    t.cost <- grow t.cost;
    t.value <- grow t.value
  end;
  let cost = t.cost and value = t.value in
  let i = ref t.size in
  t.size <- t.size + 1;
  while !i > 0 && cost.((!i - 1) / 2) > c do
    let p = (!i - 1) / 2 in
    cost.(!i) <- cost.(p);
    value.(!i) <- value.(p);
    i := p
  done;
  cost.(!i) <- c;
  value.(!i) <- v

let pop t =
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    let cost = t.cost and value = t.value in
    let c = cost.(last) and v = value.(last) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= last then sifting := false
      else begin
        let m = if l + 1 < last && cost.(l + 1) < cost.(l) then l + 1 else l in
        if cost.(m) < c then begin
          cost.(!i) <- cost.(m);
          value.(!i) <- value.(m);
          i := m
        end
        else sifting := false
      end
    done;
    cost.(!i) <- c;
    value.(!i) <- v
  end

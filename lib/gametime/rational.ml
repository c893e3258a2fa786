type t = { num : int; den : int }

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let make num den =
  if den = 0 then invalid_arg "Rational.make: zero denominator";
  let s = if den < 0 then -1 else 1 in
  let num = s * num and den = s * den in
  let g = gcd (abs num) den in
  if g = 0 then { num = 0; den = 1 } else { num = num / g; den = den / g }

let of_int n = { num = n; den = 1 }
let zero = of_int 0
let one = of_int 1

(* integer operands need no gcd: [make n 1] is [{ num = n; den = 1 }] *)
let add a b =
  if a.den = 1 && b.den = 1 then { num = a.num + b.num; den = 1 }
  else make ((a.num * b.den) + (b.num * a.den)) (a.den * b.den)

let sub a b =
  if a.den = 1 && b.den = 1 then { num = a.num - b.num; den = 1 }
  else make ((a.num * b.den) - (b.num * a.den)) (a.den * b.den)

let mul a b =
  if a.den = 1 && b.den = 1 then { num = a.num * b.num; den = 1 }
  else make (a.num * b.num) (a.den * b.den)

let div a b =
  if b.num = 0 then invalid_arg "Rational.div: division by zero";
  make (a.num * b.den) (a.den * b.num)

let neg a = { a with num = -a.num }
let is_zero a = a.num = 0
let equal a b = a.num = b.num && a.den = b.den
let compare a b = Stdlib.compare (a.num * b.den) (b.num * a.den)
let sign a = Stdlib.compare a.num 0
let to_float a = float_of_int a.num /. float_of_int a.den

let pp fmt a =
  if a.den = 1 then Format.fprintf fmt "%d" a.num
  else Format.fprintf fmt "%d/%d" a.num a.den

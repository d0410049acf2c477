(** Independent random streams derived from the benchmark seed.

    [Mp_util.Rng.split] offsets streams by multiples of the generator's
    increment, which makes them one sequence shifted by a draw per
    stream. Here each stream's start state is instead drawn from a master
    generator seeded with the benchmark seed, so streams are unrelated
    while staying a pure function of the seed. *)

let stream ~seed i =
  let master = Mp_util.Rng.create seed in
  for _ = 1 to i do
    ignore (Mp_util.Rng.next_int master : int)
  done;
  Mp_util.Rng.create (Mp_util.Rng.next_int master)

(** [n] distinct keys of [0, range), in random order. *)
let distinct rng ~range ~n =
  let perm = Array.init range Fun.id in
  for i = 0 to n - 1 do
    let j = i + Mp_util.Rng.below rng (range - i) in
    let x = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- x
  done;
  Array.sub perm 0 n

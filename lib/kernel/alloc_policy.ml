type claim = { space : int; priority : int; desired : int }

module type CLAIMANT = sig
  type t

  val priority : t -> int
  val desired : t -> int
  val id : t -> int
  val set_target : t -> int -> unit
end

module Waterfill (C : CLAIMANT) = struct
  (* Allocation order: priority desc, desired asc, id asc. *)
  let before a b =
    let pa = C.priority a and pb = C.priority b in
    if pa <> pb then pa > pb
    else
      let da = C.desired a and db = C.desired b in
      if da <> db then da < db else C.id a < C.id b

  (* Insertion sort: the kernel re-sorts the same array every pass and the
     order barely changes between passes, so this is near-linear. *)
  let sort a n =
    for i = 1 to n - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && before x a.(!j) do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

  let imin (a : int) b = if a < b then a else b

  let run ~cpus ~rotation a n =
    sort a n;
    let remaining = ref cpus in
    let i = ref 0 in
    while !i < n do
      (* [i, g) is one priority group; its zero desires sort first. *)
      let prio = C.priority a.(!i) in
      let g = ref !i in
      while !g < n && C.priority a.(!g) = prio do
        incr g
      done;
      let r = ref !i in
      while !r < !g && C.desired a.(!r) = 0 do
        C.set_target a.(!r) 0;
        incr r
      done;
      (* Waterfill smallest desires first: a space that wants less than the
         even share frees the difference for the rest.  Each run [r, e) of
         equal desire is visited rotated left by [rotation], so the
         ceiling-division remainder lands on a different space every
         period; the array itself stays in sorted order. *)
      while !r < !g do
        let d = C.desired a.(!r) in
        let e = ref (!r + 1) in
        while !e < !g && C.desired a.(!e) = d do
          incr e
        done;
        let len = !e - !r in
        let k = ((rotation mod len) + len) mod len in
        for j = 0 to len - 1 do
          let c = a.(!r + ((j + k) mod len)) in
          let slots_left = !g - !r - j in
          (* ceiling: rotation-favoured spaces absorb the remainder *)
          let share = (!remaining + slots_left - 1) / slots_left in
          let give = imin d (imin share !remaining) in
          C.set_target c give;
          remaining := !remaining - give
        done;
        r := !e
      done;
      i := !g
    done
end

type cell = { claim : claim; mutable target : int }

module Cells = Waterfill (struct
  type t = cell

  let priority c = c.claim.priority
  let desired c = c.claim.desired
  let id c = c.claim.space
  let set_target c v = c.target <- v
end)

let targets ~cpus ~rotation claims =
  if cpus < 0 then invalid_arg "Alloc_policy.targets: cpus";
  List.iter
    (fun c -> if c.desired < 0 then invalid_arg "Alloc_policy.targets: desired")
    claims;
  let ids = List.map (fun c -> c.space) claims in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    invalid_arg "Alloc_policy.targets: duplicate space ids";
  let cells = List.map (fun claim -> { claim; target = 0 }) claims in
  let a = Array.of_list cells in
  Cells.run ~cpus ~rotation a (Array.length a);
  List.map (fun c -> (c.claim.space, c.target)) cells

(* Reference oracle for the Section 4.1 allocation policy: the original
   list-based waterfill, kept here so the in-place
   [Sa_kernel.Alloc_policy.Waterfill] the kernel runs is checked against an
   independent implementation.  Per priority group (highest first) it
   filters the positive desires, sorts them by (desired, id), rotates each
   run of equal desire left by [rotation] and hands out ceiling shares of
   the processors that remain. *)

open Sa_kernel.Alloc_policy

(* Rotate a list left by [k]. *)
let rotate k l =
  let n = List.length l in
  if n <= 1 then l
  else begin
    let k = ((k mod n) + n) mod n in
    let rec split i acc = function
      | rest when i = 0 -> rest @ List.rev acc
      | x :: rest -> split (i - 1) (x :: acc) rest
      | [] -> List.rev acc
    in
    split k [] l
  end

(* Group consecutive claims with equal desire and rotate each run, so the
   ceiling-division remainder lands on a different space every period. *)
let rotate_equal_runs rotation sorted =
  let rec runs acc current = function
    | [] -> List.rev (rotate rotation (List.rev current) :: acc)
    | c :: rest -> (
        match current with
        | [] -> runs acc [ c ] rest
        | cur :: _ when cur.desired = c.desired -> runs acc (c :: current) rest
        | _ -> runs (rotate rotation (List.rev current) :: acc) [ c ] rest)
  in
  match sorted with [] -> [] | _ -> List.concat (runs [] [] sorted)

let targets ~cpus ~rotation claims =
  if cpus < 0 then invalid_arg "Alloc_oracle.targets: cpus";
  List.iter
    (fun c -> if c.desired < 0 then invalid_arg "Alloc_oracle.targets: desired")
    claims;
  let ids = List.map (fun c -> c.space) claims in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    invalid_arg "Alloc_oracle.targets: duplicate space ids";
  let by_prio =
    List.sort_uniq compare (List.map (fun c -> c.priority) claims) |> List.rev
  in
  let remaining = ref cpus in
  let out = ref [] in
  List.iter
    (fun prio ->
      let group =
        List.filter (fun c -> c.priority = prio && c.desired > 0) claims
      in
      (* Waterfill smallest desires first: a space that wants less than the
         even share frees the difference for the rest. *)
      let sorted =
        List.sort
          (fun a b ->
            match compare a.desired b.desired with
            | 0 -> compare a.space b.space
            | c -> c)
          group
      in
      let order = rotate_equal_runs rotation sorted in
      let n = List.length order in
      List.iteri
        (fun i c ->
          let slots_left = n - i in
          (* ceiling: rotation-favoured spaces absorb the remainder *)
          let share = (!remaining + slots_left - 1) / slots_left in
          let give = min c.desired (min share !remaining) in
          out := (c.space, give) :: !out;
          remaining := !remaining - give)
        order;
      (* zero-desire members of this priority group *)
      List.iter
        (fun c ->
          if c.priority = prio && c.desired = 0 then out := (c.space, 0) :: !out)
        claims)
    by_prio;
  List.rev !out

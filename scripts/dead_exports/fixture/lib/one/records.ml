type counters = {
  mutable unread : int;
  mutable bumped : int;
  probed : int;
  matched : int;
  used : int;
}

type snapshot = { kept : int; replaced : int }
type pair = { left : int; right : int }
type mode = Built | Test_built | Matched_only

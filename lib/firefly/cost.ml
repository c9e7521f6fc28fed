type t = {
  read : int;
  write : int;
  tas : int;
  faa : int;
  context_switch : int;
  time_slice : int;
}

let default =
  {
    read = 1;
    write = 1;
    tas = 3;
    faa = 3;
    context_switch = 50;
    time_slice = 10_000;
  }

let us_per_cycle = 2.0

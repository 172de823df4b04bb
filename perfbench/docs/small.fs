# Small documents for the cli-mix workload of the benchmark.  Before a
# run, every name in dollar-brace markers is replaced by a name made
# from the run's seed.

sset ${Interval} {
  dim 1;
  gen 0 ${a} ${b};
  gen 1 ${e};
  face ${e} 0 -> [] ${b};
  face ${e} 1 -> [] ${a};
}

sset ${Segment} {
  dim 1;
  gen 0 ${c} ${d};
  gen 1 ${h};
  face ${h} 0 -> [] ${d};
  face ${h} 1 -> [] ${c};
}

sset ${Pt} {
  dim 0;
  gen 0 ${o};
}

sset ${Two} {
  dim 0;
  gen 0 ${u} ${v};
}

groupoid ${Pair} {
  obj ${x} ${y};
  mor ${f}: ${x} -> ${y};
  mor ${fi}: ${y} -> ${x};
  comp ${fi}.${f} = id_${x};
  comp ${f}.${fi} = id_${y};
}

group ${Z2} {
  elements ${z} ${t};
  unit ${z};
  mul ${t}.${t} = ${z};
}

group ${S3} perm 3 gens (0 1), (0 1 2);

action ${Swap} {
  group ${Z2};
  on ${p} ${q};
  act ${t} ${p} = ${q};
  act ${t} ${q} = ${p};
}

category ${Vee} {
  obj ${m} ${l} ${r};
  mor ${ml}: ${m} -> ${l};
  mor ${mr}: ${m} -> ${r};
}

category ${Chain} {
  obj ${k0} ${k1} ${k2};
  mor ${a01}: ${k0} -> ${k1};
  mor ${a12}: ${k1} -> ${k2};
  mor ${a02}: ${k0} -> ${k2};
  comp ${a12}.${a01} = ${a02};
}

map ${Diag}: ${Two} -> ${Vee} {
  ${u} -> [] ${l};
  ${v} -> [] ${r};
}

map ${Collapse}: ${Interval} -> ${Pt} {
  ${a} -> [] ${o};
  ${b} -> [] ${o};
  ${e} -> [0] ${o};
}

# The nerve of a group has the object "pt"; its chains of t are t, t_t, ...
map ${Proj}: ${Z2} -> ${Pt} {
  pt -> [] ${o};
  ${t} -> [0] ${o};
  ${t}_${t} -> [1 0] ${o};
  ${t}_${t}_${t} -> [2 1 0] ${o};
  ${t}_${t}_${t}_${t} -> [3 2 1 0] ${o};
}

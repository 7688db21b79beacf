module npqm/bench

go 1.24

require npqm v0.0.0

replace npqm => ../

module rebloc/benchmarks

go 1.22

require rebloc v0.0.0

replace rebloc => ../

module nocmem/benchmark

go 1.22

require nocmem v0.0.0

replace nocmem => ../

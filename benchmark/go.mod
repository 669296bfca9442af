module webwave/benchmark

go 1.23

require webwave v0.0.0

replace webwave => ../

module blemesh/benchmark

go 1.22

require blemesh v0.0.0

replace blemesh => ../

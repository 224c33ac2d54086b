module softqos/benchmark

go 1.22

require softqos v0.0.0

replace softqos => ../

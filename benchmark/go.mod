module gosvm/benchmark

go 1.22

require gosvm v0.0.0

replace gosvm => ../

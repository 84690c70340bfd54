module graphblas/bench

go 1.24

require graphblas v0.0.0

replace graphblas => ../

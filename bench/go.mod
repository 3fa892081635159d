module github.com/kaml-ssd/kaml/bench

go 1.22

require github.com/kaml-ssd/kaml v0.0.0

replace github.com/kaml-ssd/kaml => ../

module sknn/bench

go 1.22

require sknn v0.0.0

replace sknn => ../

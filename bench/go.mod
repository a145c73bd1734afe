module tablehound/bench

go 1.22

require tablehound v0.0.0

replace tablehound => ../

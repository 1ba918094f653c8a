int n = 0;
n += xs.size();

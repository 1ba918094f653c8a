class A {
    int f(int n, int[] xs) {
        Runnable r = new Runnable() {
            public void run() {
                String n = "";
                n += xs.length;
                System.out.println(n);
            }
        };
        r.run();
        return n;
    }

    void g(String n, int[] xs) {
        n += xs.length;
        System.out.println(n);
    }
}
